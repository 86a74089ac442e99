//! # diaspec-apps — the paper's case-study applications
//!
//! Complete, runnable implementations of the applications the paper uses
//! across its orchestration spectrum, each written against the typed
//! programming framework generated from its design (the `generated`
//! submodules; golden tests keep them in sync with `specs/*.spec`):
//!
//! - [`cooker`] — cooker monitoring in a senior's home (small scale);
//! - [`parking`] — city-wide parking management (large scale);
//! - [`avionics`] — an automated pilot with redundant, failure-prone
//!   sensors (dependability);
//! - [`homeassist`] — assisted-living activity monitoring.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod avionics;
pub mod cooker;
pub mod homeassist;
pub mod parking;

/// Source inventory for the productivity experiment (E9, the paper's "up
/// to 80% generated code" claim): for each case study, the handwritten
/// application source (tests stripped) and the checked-in generated
/// framework source.
#[must_use]
pub fn loc_inventory() -> [(&'static str, String, &'static str); 4] {
    fn strip_tests(source: &str) -> String {
        match source.find("#[cfg(test)]") {
            Some(pos) => source[..pos].to_owned(),
            None => source.to_owned(),
        }
    }
    [
        (
            "cooker",
            strip_tests(include_str!("cooker/mod.rs")),
            include_str!("cooker/generated.rs"),
        ),
        (
            "parking",
            strip_tests(include_str!("parking/mod.rs"))
                + &strip_tests(include_str!("parking/deploy.rs")),
            include_str!("parking/generated.rs"),
        ),
        (
            "avionics",
            strip_tests(include_str!("avionics/mod.rs")),
            include_str!("avionics/generated.rs"),
        ),
        (
            "homeassist",
            strip_tests(include_str!("homeassist/mod.rs")),
            include_str!("homeassist/generated.rs"),
        ),
    ]
}
