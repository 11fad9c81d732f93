//! The name table for utility functions: the one place a utility name
//! becomes a [`UtilityFunction`].

use std::str::FromStr;

use crate::common_neighbors::CommonNeighbors;
use crate::traits::UtilityFunction;
use crate::weighted_paths::WeightedPaths;

/// A utility function a request, a plan or a CLI flag can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilityKind {
    /// [`CommonNeighbors`] (§4.1).
    CommonNeighbors,
    /// [`WeightedPaths::paper`] (§5.2), damped by γ.
    WeightedPaths,
}

impl UtilityKind {
    /// Every kind, in [`UtilityKind::NAMES`] order.
    pub const ALL: [UtilityKind; 2] = [UtilityKind::CommonNeighbors, UtilityKind::WeightedPaths];
    /// Every utility name, the `--utility` vocabulary.
    pub const NAMES: [&'static str; 2] = ["common-neighbors", "weighted-paths"];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Builds the utility function; `gamma` is the weighted-paths damping
    /// and is ignored by common neighbours.
    pub fn build(self, gamma: f64) -> Box<dyn UtilityFunction> {
        match self {
            UtilityKind::CommonNeighbors => Box::new(CommonNeighbors),
            UtilityKind::WeightedPaths => Box::new(WeightedPaths::paper(gamma)),
        }
    }
}

impl FromStr for UtilityKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let names = Self::NAMES;
        Self::ALL
            .into_iter()
            .find(|u| u.name() == s)
            .ok_or_else(|| format!("unknown utility {s:?} (expected one of {names:?})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_build() {
        for kind in UtilityKind::ALL {
            assert_eq!(kind.name().parse::<UtilityKind>(), Ok(kind));
        }
        assert_eq!(UtilityKind::CommonNeighbors.build(0.5).name(), "common-neighbors");
        assert!(UtilityKind::WeightedPaths.build(0.5).name().starts_with("weighted-paths"));
        assert!("nope".parse::<UtilityKind>().unwrap_err().contains("unknown utility"));
    }
}
