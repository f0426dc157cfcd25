//! Regenerates Table 1: parameters for the different processor designs.
//!
//! Reads no flags (and rejects unknown ones); see
//! [`piranha::observe::Flags`].
fn main() {
    piranha::observe::Flags::from_env();
    println!("{}", piranha::experiments::table1());
}
