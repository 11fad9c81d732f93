//! Graph I/O: SNAP-style edge-list text.
//!
//! The paper's experiments load the SNAP `wiki-Vote.txt` dump (comment lines
//! starting with `#`, whitespace-separated integer pairs, arbitrary sparse
//! node ids). [`read_edge_list`] accepts that format and compacts node ids;
//! the returned [`IdMap`] preserves the original labels. Binary snapshots
//! are the PSRZ format of [`crate::compressed`].

use std::io::{BufRead, BufReader, Read, Write};

use crate::builder::{Direction, GraphBuilder};
use crate::csr::Graph;
use crate::error::GraphError;
use crate::node::NodeId;
use crate::Result;

/// Mapping from compact [`NodeId`]s back to the labels used in the source
/// file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMap {
    originals: Vec<u64>,
}

impl IdMap {
    /// Original label of compact id `v`.
    pub fn original(&self, v: NodeId) -> u64 {
        self.originals[v as usize]
    }

    /// Number of mapped nodes.
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }
}

/// Parses a SNAP-style edge list from a reader.
///
/// Node labels are compacted to `0..n` in order of first appearance;
/// duplicate edges are removed by the builder; self-loops in the source are
/// *skipped* (SNAP dumps contain them, the paper's model does not).
pub fn read_edge_list<R: Read>(reader: R, direction: Direction) -> Result<(Graph, IdMap)> {
    let mut builder = GraphBuilder::new(direction);
    let mut originals: Vec<u64> = Vec::new();
    let mut lookup: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
    let mut intern = |label: u64, originals: &mut Vec<u64>| -> NodeId {
        *lookup.entry(label).or_insert_with(|| {
            let id = originals.len() as NodeId;
            originals.push(label);
            id
        })
    };

    let buf = BufReader::new(reader);
    let mut line_no = 0usize;
    let mut line = String::new();
    let mut buf = buf;
    loop {
        line.clear();
        let read = buf.read_line(&mut line)?;
        if read == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, line_no: usize| -> Result<u64> {
            let tok = tok.ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "expected two whitespace-separated node ids".into(),
            })?;
            tok.parse::<u64>().map_err(|_| GraphError::Parse {
                line: line_no,
                message: format!("invalid node id {tok:?}"),
            })
        };
        let a = parse(parts.next(), line_no)?;
        let b = parse(parts.next(), line_no)?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "trailing tokens after edge".into(),
            });
        }
        if a == b {
            continue; // skip self-loops from raw dumps
        }
        let u = intern(a, &mut originals);
        let v = intern(b, &mut originals);
        builder.push_edge(u, v);
    }
    let graph = builder.build()?;
    Ok((graph, IdMap { originals }))
}

/// Parses a SNAP-style edge list from a string.
pub fn parse_edge_list(text: &str, direction: Direction) -> Result<(Graph, IdMap)> {
    read_edge_list(text.as_bytes(), direction)
}

/// Writes the logical edges as a SNAP-style edge list (with a header
/// comment), one `u\tv` pair per line, using compact ids.
pub fn write_edge_list<W: Write>(graph: &Graph, mut writer: W) -> Result<()> {
    writeln!(
        writer,
        "# psr-graph edge list: {} nodes, {} edges, {}",
        graph.num_nodes(),
        graph.num_edges(),
        if graph.is_directed() { "directed" } else { "undirected" }
    )?;
    let mut out = std::io::BufWriter::new(&mut writer);
    for (u, v) in graph.edges() {
        writeln!(out, "{u}\t{v}")?;
    }
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::undirected_from_edges;

    const SNAP_SAMPLE: &str = "\
# Directed graph (each unordered pair of nodes is saved once)
# Wiki-vote sample
# FromNodeId\tToNodeId
30\t1412
30\t3352
30\t5254
3352\t30
5254\t5254
";

    #[test]
    fn parses_snap_format_with_comments_and_self_loops() {
        let (g, ids) = parse_edge_list(SNAP_SAMPLE, Direction::Directed).unwrap();
        // 4 distinct labels: 30, 1412, 3352, 5254 (self-loop row adds no edge
        // but 5254 already appeared).
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(ids.original(0), 30);
        assert_eq!(ids.original(1), 1412);
        assert_eq!(ids.len(), 4);
        assert!(!ids.is_empty());
    }

    #[test]
    fn undirected_parse_symmetrises_and_dedups() {
        let (g, _) = parse_edge_list("1 2\n2 1\n", Direction::Undirected).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_edge_list("1 2\nxyz 3\n", Direction::Directed).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("xyz"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_second_endpoint_is_an_error() {
        let err = parse_edge_list("1\n", Direction::Directed).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn trailing_tokens_are_an_error() {
        let err = parse_edge_list("1 2 3\n", Direction::Directed).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn write_then_read_round_trips() {
        let g = undirected_from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (back, _) = parse_edge_list(&text, Direction::Undirected).unwrap();
        assert_eq!(back, g);
    }
}
