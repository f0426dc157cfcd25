//! The wire format for run submissions: a [`RunSpec`] names a
//! configuration preset, workload, and scale symbolically, and resolves
//! into the harness's [`RunRequest`] on the server.
//!
//! Configurations are *named*, not serialized structurally: the
//! `SystemConfig` Debug rendering that keys the cache is hundreds of
//! fields deep and owned by the simulator, so clients speak in the
//! paper's vocabulary (`p8`, `ooo`, …) and both sides derive the full
//! config — and therefore the cache key — from the same preset
//! constructors. A client and server of the same build can never
//! disagree on what a spec means.
//!
//! # Examples
//!
//! ```
//! use piranha_serve::spec::RunSpec;
//! let spec = RunSpec::new("p4", "oltp", "tiny").with_chips(2);
//! let req = spec.resolve().unwrap();
//! assert_eq!(req.cfg.nodes, 2);
//! let wire = spec.to_json().to_string();
//! let back = RunSpec::from_json(&piranha_serve::json::Json::parse(&wire).unwrap()).unwrap();
//! assert_eq!(back.resolve().unwrap().key(), req.key());
//! ```

use piranha_harness::{RunRequest, RunScale};
use piranha_system::SystemConfig;
use piranha_types::ids::MAX_NODES;
use piranha_workloads::{DssConfig, OltpConfig, SynthConfig, WebConfig, Workload};

use crate::json::Json;

/// One run named symbolically: `preset` × `workload` × `scale`, with
/// optional multi-chip / I/O-node modifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSpec {
    /// Configuration preset: `p1`..`p8`, `p8f`, `ooo`, `ino`, `p8-pess`.
    pub preset: String,
    /// Chips the preset is scaled to (`scaled_to_chips`); 1 = single.
    pub chips: usize,
    /// I/O nodes attached (`with_io_nodes`).
    pub io_nodes: usize,
    /// Workload spec: `oltp`, `oltp:<txns>`, `tpcc`, `tpcc:<txns>`,
    /// `dss`, `dss:<lines>`, `synth`, `web`.
    pub workload: String,
    /// Scale spec: `tiny`, `quick`, `full`, `huge`, `completion`.
    pub scale: String,
}

impl RunSpec {
    /// A single-chip spec.
    pub fn new(
        preset: impl Into<String>,
        workload: impl Into<String>,
        scale: impl Into<String>,
    ) -> Self {
        RunSpec {
            preset: preset.into(),
            chips: 1,
            io_nodes: 0,
            workload: workload.into(),
            scale: scale.into(),
        }
    }

    /// Scale the preset to `chips` chips (builder-style).
    pub fn with_chips(mut self, chips: usize) -> Self {
        self.chips = chips.max(1);
        self
    }

    /// Attach `n` I/O nodes (builder-style).
    pub fn with_io_nodes(mut self, n: usize) -> Self {
        self.io_nodes = n;
        self
    }

    /// A short human-readable label for progress displays.
    pub fn label(&self) -> String {
        let mut s = self.preset.clone();
        if self.chips > 1 {
            s.push_str(&format!("x{}", self.chips));
        }
        if self.io_nodes > 0 {
            s.push_str(&format!("+io{}", self.io_nodes));
        }
        format!("{s}|{}|{}", self.workload, self.scale)
    }

    /// Resolve the symbolic names into a concrete [`RunRequest`].
    ///
    /// # Errors
    ///
    /// Names the first unknown preset/workload/scale token, or a
    /// `completion` scale on a workload whose streams never end (`synth`,
    /// `web`, or `oltp`/`tpcc`/`dss` without a positive bound).
    pub fn resolve(&self) -> Result<RunRequest, String> {
        let mut cfg = resolve_preset(&self.preset)?;
        if self.chips > 1 {
            cfg = cfg.scaled_to_chips(self.chips);
        }
        if self.io_nodes > 0 {
            cfg = cfg.with_io_nodes(self.io_nodes);
        }
        let workload = resolve_workload(&self.workload)?;
        let scale = resolve_scale(&self.scale)?;
        let bounded = match &workload {
            Workload::Oltp(c) => c.txn_limit > 0,
            Workload::Dss(c) => c.line_limit > 0,
            _ => false,
        };
        if scale.to_completion && !bounded {
            return Err(format!(
                "run spec scale {:?} never ends on the unbounded workload {:?} \
                 (bound it, e.g. \"oltp:200\")",
                self.scale, self.workload
            ));
        }
        Ok(RunRequest::new(cfg, workload, scale))
    }

    /// The spec as a JSON object (the `submit` wire format).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("preset".into(), Json::str(&self.preset)),
            ("chips".into(), Json::U64(self.chips as u64)),
            ("io_nodes".into(), Json::U64(self.io_nodes as u64)),
            ("workload".into(), Json::str(&self.workload)),
            ("scale".into(), Json::str(&self.scale)),
        ])
    }

    /// Parse a spec object (missing `chips`/`io_nodes` default to 1/0).
    ///
    /// # Errors
    ///
    /// Reports a missing `preset`/`workload`/`scale` field, a present
    /// `chips` that is not a positive integer or `io_nodes` that is not a
    /// non-negative one, or a machine of more than [`MAX_NODES`] nodes
    /// (`chips + io_nodes`), the limit of the directory's 10-bit node
    /// pointers.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("run spec needs a string field {k:?}"))
        };
        let count = |k: &str, default: u64, min: u64| match v.get(k) {
            None => Ok(default),
            Some(j) => j.as_u64().filter(|&n| n >= min).ok_or_else(|| {
                format!("run spec field {k:?} must be an integer >= {min}, not {j}")
            }),
        };
        let chips = count("chips", 1, 1)?;
        let io_nodes = count("io_nodes", 0, 0)?;
        if chips.saturating_add(io_nodes) > MAX_NODES as u64 {
            return Err(format!(
                "run spec field \"chips\" ({chips}) plus \"io_nodes\" ({io_nodes}) \
                 exceeds the {MAX_NODES}-node limit"
            ));
        }
        Ok(RunSpec {
            preset: field("preset")?,
            chips: chips as usize,
            io_nodes: io_nodes as usize,
            workload: field("workload")?,
            scale: field("scale")?,
        })
    }
}

/// Resolve a configuration preset token.
///
/// # Errors
///
/// Names the unknown token and lists the valid ones.
pub fn resolve_preset(token: &str) -> Result<SystemConfig, String> {
    match token.trim().to_ascii_lowercase().as_str() {
        "p8f" => Ok(SystemConfig::piranha_p8f()),
        "ooo" => Ok(SystemConfig::ooo()),
        "ino" => Ok(SystemConfig::ino()),
        "p8-pess" | "p8_pess" | "p8-pessimistic" => Ok(SystemConfig::piranha_p8_pessimistic()),
        t => {
            if let Some(n) = t.strip_prefix('p').and_then(|n| n.parse::<usize>().ok()) {
                if (1..=8).contains(&n) {
                    return Ok(SystemConfig::piranha_pn(n));
                }
            }
            Err(format!(
                "unknown config preset {token:?} (expected p1..p8, p8f, ooo, ino, p8-pess)"
            ))
        }
    }
}

/// Resolve a workload token (`oltp[:txns]`, `tpcc[:txns]`,
/// `dss[:lines]`, `synth`, `web`).
///
/// # Errors
///
/// Names the unknown token or a malformed bound.
pub fn resolve_workload(token: &str) -> Result<Workload, String> {
    let token = token.trim().to_ascii_lowercase();
    let (base, bound) = match token.split_once(':') {
        Some((b, n)) => {
            let n: u64 = n
                .trim()
                .parse()
                .map_err(|_| format!("bad workload bound in {token:?}"))?;
            (b.trim(), Some(n))
        }
        None => (token.as_str(), None),
    };
    match base {
        "oltp" => Ok(Workload::Oltp(OltpConfig {
            txn_limit: bound.unwrap_or(0),
            ..OltpConfig::paper_default()
        })),
        "tpcc" => Ok(Workload::Oltp(OltpConfig {
            txn_limit: bound.unwrap_or(0),
            ..OltpConfig::tpcc_like()
        })),
        "dss" => Ok(Workload::Dss(DssConfig {
            line_limit: bound.unwrap_or(0),
            ..DssConfig::paper_default()
        })),
        "synth" if bound.is_none() => Ok(Workload::Synth(SynthConfig::light())),
        "web" if bound.is_none() => Ok(Workload::Web(WebConfig::paper_default())),
        _ => Err(format!(
            "unknown workload {token:?} (expected oltp[:txns], tpcc[:txns], dss[:lines], synth, web)"
        )),
    }
}

/// Resolve a scale token.
///
/// # Errors
///
/// Names the unknown token.
pub fn resolve_scale(token: &str) -> Result<RunScale, String> {
    match token.trim().to_ascii_lowercase().as_str() {
        "tiny" => Ok(RunScale::tiny()),
        "quick" => Ok(RunScale::quick()),
        "full" => Ok(RunScale::full()),
        "huge" => Ok(RunScale::huge()),
        "completion" => Ok(RunScale::completion()),
        t => Err(format!(
            "unknown scale {t:?} (expected tiny, quick, full, huge, completion)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_to_paper_configs() {
        assert_eq!(resolve_preset("p8").unwrap().name, "P8");
        assert_eq!(resolve_preset("P4").unwrap().cpus_per_node, 4);
        assert_eq!(resolve_preset("ooo").unwrap().name, "OOO");
        assert_eq!(resolve_preset("ino").unwrap().name, "INO");
        assert_eq!(resolve_preset("p8f").unwrap().name, "P8F");
        assert_eq!(resolve_preset("p8-pess").unwrap().name, "P8-pess");
        assert!(resolve_preset("p9").is_err());
        assert!(resolve_preset("alpha").is_err());
    }

    #[test]
    fn workloads_resolve_with_bounds() {
        assert!(matches!(
            resolve_workload("oltp").unwrap(),
            Workload::Oltp(c) if c.txn_limit == 0
        ));
        assert!(matches!(
            resolve_workload("oltp:25").unwrap(),
            Workload::Oltp(c) if c.txn_limit == 25
        ));
        assert!(matches!(
            resolve_workload("dss:100").unwrap(),
            Workload::Dss(c) if c.line_limit == 100
        ));
        assert!(matches!(
            resolve_workload("synth").unwrap(),
            Workload::Synth(_)
        ));
        assert!(matches!(resolve_workload("web").unwrap(), Workload::Web(_)));
        assert!(resolve_workload("oltp:lots").is_err());
        assert!(resolve_workload("spec2017").is_err());
        assert!(resolve_workload("synth:5").is_err());
    }

    #[test]
    fn specs_round_trip_through_json_to_the_same_key() {
        let spec = RunSpec::new("p4", "oltp:10", "completion")
            .with_chips(2)
            .with_io_nodes(1);
        let wire = spec.to_json().to_string();
        let back = RunSpec::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(
            back.resolve().unwrap().key(),
            spec.resolve().unwrap().key(),
            "round-tripped spec addresses the same cache entry"
        );
    }

    #[test]
    fn modifiers_apply_to_the_config() {
        let req = RunSpec::new("p2", "synth", "tiny")
            .with_chips(3)
            .with_io_nodes(2)
            .resolve()
            .unwrap();
        assert_eq!(req.cfg.nodes, 3);
        assert_eq!(req.cfg.io_nodes, 2);
        assert_eq!(req.cfg.name, "P2x3");
        assert!(req.scale == RunScale::tiny());
    }

    #[test]
    fn machine_size_is_bounded_at_max_nodes() {
        let decode =
            |spec: RunSpec| RunSpec::from_json(&Json::parse(&spec.to_json().to_string()).unwrap());
        let max = RunSpec::new("p1", "synth", "tiny").with_chips(MAX_NODES);
        assert_eq!(decode(max.clone()), Ok(max));
        let err = decode(
            RunSpec::new("p1", "synth", "tiny")
                .with_chips(1000)
                .with_io_nodes(25),
        )
        .expect_err("1025 nodes exceed the limit");
        assert!(err.contains("chips") && err.contains("io_nodes"), "{err}");
    }

    #[test]
    fn malformed_machine_sizes_name_their_field() {
        let decode = |json: &str| RunSpec::from_json(&Json::parse(json).unwrap());
        let spec = r#""preset":"p4","workload":"oltp","scale":"tiny""#;
        for (field, bad) in [
            ("chips", r#""16""#),
            ("chips", "-3"),
            ("chips", "2.5"),
            ("chips", "0"),
            ("io_nodes", r#""1""#),
            ("io_nodes", "-1"),
            ("io_nodes", "0.5"),
        ] {
            let err = decode(&format!("{{{spec},\"{field}\":{bad}}}"))
                .expect_err("a malformed size must not decode to the default");
            assert!(err.contains(field), "{field}={bad}: {err}");
        }
        let ok = decode(&format!("{{{spec},\"chips\":16,\"io_nodes\":0}}")).unwrap();
        assert_eq!((ok.chips, ok.io_nodes), (16, 0));
    }

    #[test]
    fn completion_needs_a_bounded_workload() {
        for workload in ["oltp", "oltp:0", "tpcc", "dss", "synth", "web"] {
            let err = RunSpec::new("p1", workload, "completion")
                .resolve()
                .expect_err("an unbounded completion run never ends");
            assert!(err.contains("scale") && err.contains(workload), "{err}");
        }
        for workload in ["oltp:5", "tpcc:5", "dss:100"] {
            assert!(RunSpec::new("p1", workload, "completion").resolve().is_ok());
        }
    }

    #[test]
    fn bad_specs_report_not_panic() {
        assert!(RunSpec::new("p8", "oltp", "gigantic").resolve().is_err());
        assert!(RunSpec::new("vax", "oltp", "tiny").resolve().is_err());
        assert!(RunSpec::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
