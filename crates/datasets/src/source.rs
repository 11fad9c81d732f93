//! Graph sources: the one place a preset, backend or dataset spec is
//! named, validated and loaded.
//!
//! A [`DatasetSpec`] says which graph a run works on (a generated
//! [`Preset`], a SNAP edge list or a PSRZ snapshot) and through which
//! [`Backend`]. The `psr` CLI and frontier plans both build one and call
//! [`DatasetSpec::validate`] and [`DatasetSpec::load`], so every surface
//! accepts the same names and reads the same bytes.

use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;

use psr_graph::io::IdMap;
use psr_graph::{CompressedCsr, Direction, Graph, GraphBackend};
use serde::{Deserialize, Serialize};

use crate::meta::DatasetMeta;
use crate::presets::{livejournal_like, twitter_like, wiki_vote_like, PresetConfig};

/// A named graph: the bundled karate club or a generated stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Zachary's karate club ([`crate::toy::karate_club`]); ignores scale
    /// and seed.
    Karate,
    /// [`wiki_vote_like`].
    Wiki,
    /// [`twitter_like`].
    Twitter,
    /// [`livejournal_like`].
    LiveJournal,
}

impl Preset {
    /// Every preset, in [`Preset::NAMES`] order.
    pub const ALL: [Preset; 4] =
        [Preset::Karate, Preset::Wiki, Preset::Twitter, Preset::LiveJournal];
    /// Every preset name, the `--preset` vocabulary.
    pub const NAMES: [&'static str; 4] = ["karate", "wiki", "twitter", "livejournal"];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// Generates (or, for karate, returns) the graph and its metadata.
    pub fn generate(self, config: PresetConfig) -> psr_graph::Result<(Graph, DatasetMeta)> {
        match self {
            Preset::Karate => {
                let graph = crate::toy::karate_club();
                let meta = DatasetMeta::describe("karate", &graph, 0, 1.0);
                Ok((graph, meta))
            }
            Preset::Wiki => wiki_vote_like(config),
            Preset::Twitter => twitter_like(config),
            Preset::LiveJournal => livejournal_like(config),
        }
    }
}

impl FromStr for Preset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let names = Self::NAMES;
        Self::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| format!("unknown preset {s:?} (expected one of {names:?})"))
    }
}

/// How a loaded graph is held in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The plain in-RAM CSR.
    Csr,
    /// The PSRZ codec: an mmap-backed snapshot, or a graph round-tripped
    /// through the codec in RAM.
    Compressed,
}

impl Backend {
    /// Every backend, in [`Backend::NAMES`] order.
    pub const ALL: [Backend; 2] = [Backend::Csr, Backend::Compressed];
    /// Every backend name, the `--backend` vocabulary.
    pub const NAMES: [&'static str; 2] = ["csr", "compressed"];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let names = Self::NAMES;
        Self::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| format!("unknown backend {s:?} (expected one of {names:?})"))
    }
}

/// One graph source: which graph, through which backing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// A [`Preset`] name. Ignored when `input` or `snapshot` is given,
    /// but still names the dataset in reports.
    pub preset: String,
    /// Optional SNAP edge-list path to load instead of a preset.
    pub input: Option<String>,
    /// Whether `input` is read as a directed graph.
    pub directed: bool,
    /// Preset size multiplier in `(0, 1]`.
    pub scale: f64,
    /// A [`Backend`] name: `csr`, or `compressed` (round-trips the graph
    /// through the PSRZ codec first).
    pub backend: String,
    /// Optional PSRZ snapshot path; requires the compressed backing and
    /// excludes `input`.
    pub snapshot: Option<String>,
}

impl DatasetSpec {
    /// A plain in-RAM karate-club source.
    #[must_use]
    pub fn karate() -> Self {
        DatasetSpec::from_preset(Preset::Karate)
    }

    /// A plain in-RAM, full-scale `preset` source.
    #[must_use]
    pub fn from_preset(preset: Preset) -> Self {
        DatasetSpec {
            preset: preset.name().to_owned(),
            input: None,
            directed: false,
            scale: 1.0,
            backend: Backend::Csr.name().to_owned(),
            snapshot: None,
        }
    }

    /// The human-readable dataset label used in reports.
    #[must_use]
    pub fn label(&self) -> String {
        self.snapshot.clone().or_else(|| self.input.clone()).unwrap_or_else(|| self.preset.clone())
    }

    /// Checks the names, the scale, and that a snapshot neither comes
    /// with an input file nor skips the compressed backing.
    pub fn validate(&self) -> Result<(), String> {
        self.preset.parse::<Preset>()?;
        let backend: Backend = self.backend.parse()?;
        if !(self.scale > 0.0 && self.scale <= 1.0) {
            return Err(format!("scale {} out of range (0, 1]", self.scale));
        }
        if self.snapshot.is_some() && self.input.is_some() {
            return Err("a snapshot and an input file are mutually exclusive".to_owned());
        }
        if self.snapshot.is_some() && backend != Backend::Compressed {
            return Err("a snapshot requires the compressed backend".to_owned());
        }
        Ok(())
    }

    /// Loads the graph, generating presets at `seed`. A snapshot is
    /// served mmap-backed; otherwise the graph is built in RAM and, for
    /// the compressed backend, round-tripped through the PSRZ codec. An
    /// input file also returns its [`IdMap`] of original node labels.
    pub fn load(&self, seed: u64) -> Result<(GraphBackend, Option<IdMap>), String> {
        self.validate()?;
        if let Some(path) = &self.snapshot {
            let compressed = CompressedCsr::open_path(Path::new(path))
                .map_err(|e| format!("opening snapshot {path}: {e}"))?;
            return Ok((GraphBackend::Compressed(Arc::new(compressed)), None));
        }
        let (graph, ids) = match &self.input {
            Some(path) => {
                let direction =
                    if self.directed { Direction::Directed } else { Direction::Undirected };
                let (graph, ids) = crate::load_snap(Path::new(path), direction)
                    .map_err(|e| format!("loading {path}: {e}"))?;
                (graph, Some(ids))
            }
            None => {
                let preset: Preset = self.preset.parse()?;
                let config = PresetConfig::scaled(self.scale, seed);
                let (graph, _) = preset
                    .generate(config)
                    .map_err(|e| format!("generating {}: {e}", self.preset))?;
                (graph, None)
            }
        };
        let backend = match self.backend.parse()? {
            Backend::Csr => GraphBackend::from(graph),
            Backend::Compressed => {
                let compressed = CompressedCsr::open_bytes(CompressedCsr::encode(&graph, 1))
                    .map_err(|e| format!("round-tripping {}: {e}", self.label()))?;
                GraphBackend::Compressed(Arc::new(compressed))
            }
        };
        Ok((backend, ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psr_graph::GraphView;

    #[test]
    fn names_round_trip() {
        for preset in Preset::ALL {
            assert_eq!(preset.name().parse::<Preset>(), Ok(preset));
        }
        for backend in Backend::ALL {
            assert_eq!(backend.name().parse::<Backend>(), Ok(backend));
        }
        assert!("bogus".parse::<Preset>().unwrap_err().contains("unknown preset"));
        assert!("bogus".parse::<Backend>().unwrap_err().contains("unknown backend"));
    }

    #[test]
    fn validate_rejects_inconsistent_sources() {
        DatasetSpec::karate().validate().unwrap();
        let bad = |edit: fn(&mut DatasetSpec)| {
            let mut spec = DatasetSpec::karate();
            edit(&mut spec);
            spec.validate().unwrap_err()
        };
        assert!(bad(|s| s.preset = "bogus".into()).contains("preset"));
        assert!(bad(|s| s.backend = "bogus".into()).contains("backend"));
        assert!(bad(|s| s.scale = 0.0).contains("scale"));
        assert!(bad(|s| s.scale = 1.5).contains("scale"));
        assert!(bad(|s| s.snapshot = Some("g.psrz".into())).contains("compressed"));
        assert!(bad(|s| {
            s.backend = "compressed".into();
            s.snapshot = Some("g.psrz".into());
            s.input = Some("e.txt".into());
        })
        .contains("mutually exclusive"));
    }

    #[test]
    fn load_serves_every_backing_of_the_same_graph() {
        let karate = crate::toy::karate_club();
        let (csr, ids) = DatasetSpec::karate().load(1).unwrap();
        assert!(ids.is_none());
        assert_eq!(csr.kind(), "csr");
        let compressed = DatasetSpec { backend: "compressed".into(), ..DatasetSpec::karate() };
        let (compressed, _) = compressed.load(1).unwrap();
        assert_eq!(compressed.kind(), "compressed");
        for backend in [csr, compressed] {
            assert_eq!(*backend.to_graph_arc(), karate);
        }
    }

    #[test]
    fn load_failures_are_errors() {
        let missing =
            DatasetSpec { input: Some("/nonexistent/psr.txt".into()), ..DatasetSpec::karate() };
        assert!(missing.load(1).unwrap_err().starts_with("loading /nonexistent/psr.txt"));
        let snapshot = DatasetSpec {
            backend: "compressed".into(),
            snapshot: Some("/nonexistent/psr.psrz".into()),
            ..DatasetSpec::karate()
        };
        assert!(snapshot.load(1).unwrap_err().starts_with("opening snapshot"));
        let generated = DatasetSpec { scale: 0.01, ..DatasetSpec::from_preset(Preset::Wiki) };
        assert_eq!(generated.load(3).unwrap().0.num_nodes(), 71);
    }
}
