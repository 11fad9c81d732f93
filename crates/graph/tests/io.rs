//! Malformed-input coverage and a round-trip property for the SNAP
//! edge-list parser.
//!
//! Real SNAP dumps arrive with comment conventions from several tools
//! (`#` and `%`), CRLF line endings from Windows mirrors, and the
//! occasional truncated or garbage line. `read_edge_list` must either
//! parse them or fail with a line-numbered [`GraphError::Parse`] — never
//! panic, never silently mis-parse.

use proptest::prelude::*;
use psr_graph::io::{parse_edge_list, write_edge_list};
use psr_graph::{Direction, GraphBuilder, GraphError};

// ---------------------------------------------------------------------
// Malformed text inputs
// ---------------------------------------------------------------------

#[test]
fn truncated_line_reports_its_line_number() {
    let err = parse_edge_list("1 2\n3 4\n5\n", Direction::Directed).unwrap_err();
    match err {
        GraphError::Parse { line, message } => {
            assert_eq!(line, 3);
            assert!(message.contains("two whitespace-separated"), "{message}");
        }
        other => panic!("expected Parse, got {other:?}"),
    }
}

#[test]
fn empty_and_whitespace_only_lines_are_skipped() {
    let (g, _) = parse_edge_list("\n   \n1 2\n\t\n2 3\n", Direction::Undirected).unwrap();
    assert_eq!(g.num_edges(), 2);
}

#[test]
fn overflowing_node_id_is_a_parse_error_not_a_panic() {
    // One digit past u64::MAX.
    let big = "184467440737095516160";
    let err = parse_edge_list(&format!("1 {big}\n"), Direction::Directed).unwrap_err();
    match err {
        GraphError::Parse { line, message } => {
            assert_eq!(line, 1);
            assert!(message.contains(big), "{message}");
        }
        other => panic!("expected Parse, got {other:?}"),
    }
    // u64::MAX itself is a legal label — the interner compacts it.
    let (g, ids) = parse_edge_list(&format!("0 {}\n", u64::MAX), Direction::Directed).unwrap();
    assert_eq!(g.num_nodes(), 2);
    assert_eq!(ids.original(1), u64::MAX);
}

#[test]
fn negative_and_non_numeric_ids_are_parse_errors() {
    for bad in ["-1 2\n", "1 2.5\n", "a b\n", "1 0x10\n"] {
        let err = parse_edge_list(bad, Direction::Directed).unwrap_err();
        assert!(
            matches!(err, GraphError::Parse { line: 1, .. }),
            "{bad:?} should fail on line 1, got {err:?}"
        );
    }
}

#[test]
fn percent_comments_are_skipped() {
    // Matrix-market-style dumps comment with `%`.
    let text = "% matrix market header\n%% another\n1 2\n% trailing comment\n2 3\n";
    let (g, _) = parse_edge_list(text, Direction::Undirected).unwrap();
    assert_eq!(g.num_nodes(), 3);
    assert_eq!(g.num_edges(), 2);
}

#[test]
fn crlf_line_endings_parse_like_unix_ones() {
    let unix = "# c\n1 2\n2 3\n";
    let dos = "# c\r\n1 2\r\n2 3\r\n";
    let (from_unix, ids_unix) = parse_edge_list(unix, Direction::Undirected).unwrap();
    let (from_dos, ids_dos) = parse_edge_list(dos, Direction::Undirected).unwrap();
    assert_eq!(from_unix, from_dos);
    assert_eq!(ids_unix, ids_dos);
}

#[test]
fn mixed_tabs_and_spaces_separate_fields() {
    let (g, _) = parse_edge_list("1\t2\n2   3\n3 \t 4\n", Direction::Directed).unwrap();
    assert_eq!(g.num_edges(), 3);
}

#[test]
fn comment_only_input_yields_an_empty_graph() {
    let (g, ids) = parse_edge_list("# nothing\n% here\n", Direction::Undirected).unwrap();
    assert_eq!(g.num_nodes(), 0);
    assert_eq!(g.num_edges(), 0);
    assert!(ids.is_empty());
}

#[test]
fn error_line_numbers_count_comments_and_blanks() {
    // The failing row is physical line 4: comments and blank lines count.
    let err = parse_edge_list("# header\n\n1 2\nboom\n", Direction::Directed).unwrap_err();
    assert!(matches!(err, GraphError::Parse { line: 4, .. }), "{err:?}");
}

// ---------------------------------------------------------------------
// Round-trip property
// ---------------------------------------------------------------------

/// Strategy: a random simple edge list on up to `n` nodes.
fn edge_set(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(u, v)| u != v).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_write_read_round_trips(edges in edge_set(24, 60), directed in 0u32..2) {
        let direction = if directed == 1 { Direction::Directed } else { Direction::Undirected };
        let g = GraphBuilder::new(direction)
            .add_edges(edges.iter().copied())
            .build()
            .unwrap();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let (back, ids) = parse_edge_list(&text, direction).unwrap();
        // The parser re-interns ids in first-appearance order, so map the
        // parsed edges back through the IdMap before comparing; for
        // undirected graphs the canonical (low, high) orientation is in
        // *compact* ids, so normalise after mapping. The edge *set* must
        // match exactly (isolated nodes have no rows to keep).
        let canon = |(u, v): (u32, u32)| {
            if directed == 1 || u <= v {
                (u, v)
            } else {
                (v, u)
            }
        };
        let mut expect: Vec<(u32, u32)> = g.edges().map(canon).collect();
        let mut got: Vec<(u32, u32)> = back
            .edges()
            .map(|(u, v)| canon((ids.original(u) as u32, ids.original(v) as u32)))
            .collect();
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}
