//! Property and malformed-corpus suite for the `PSRZ` compressed
//! snapshot format, driven through the public API only.
//!
//! Mirrors the journal-hardening idioms of `crates/core/tests/ledger.rs`
//! for a read-only format:
//!
//! * **Round-trip** — any graph the builder can produce (empty graphs,
//!   isolated-node tails, hubs wider than a 14-bit degree varint)
//!   encodes, validates on open, and materialises back to an identical
//!   CSR through every read path: the per-node cache, the streaming
//!   workspace decoder, and `to_graph`.
//! * **Crash tails and corruption** — truncating the snapshot at *every*
//!   byte boundary, or flipping an arbitrary byte, is rejected with a
//!   typed error, never a panic. Structural lies behind a restamped
//!   checksum (non-monotone offsets, false headers, false shard
//!   manifests) fall to the structural validator instead.
//! * **Out-of-core conformance** — the spill-and-merge builder produces
//!   the byte-identical snapshot semantics of the in-RAM encoder.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use psr_graph::compressed::{restamp_checksum, HEADER_LEN};
use psr_graph::{
    CompressedCsr, Direction, GraphBuilder, GraphError, GraphView, NodeId, OutOfCoreBuilder,
};

/// A unique scratch path (no tempfile crate in the offline vendor set).
fn scratch_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("psr-psrz-it-{tag}-{}-{n}.psrz", std::process::id()))
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Strategy: a random simple edge list on up to `n` nodes.
fn edge_set(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(|pairs| pairs.into_iter().filter(|(u, v)| u != v).collect())
}

fn build(edges: &[(u32, u32)], direction: Direction, padding: usize) -> psr_graph::Graph {
    let max_node = edges.iter().map(|&(u, v)| u.max(v) + 1).max().unwrap_or(0);
    GraphBuilder::new(direction)
        .add_edges(edges.iter().copied())
        .with_num_nodes(max_node as usize + padding)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compressed_round_trips_any_graph(
        edges in edge_set(32, 90),
        directed in 0u32..2,
        padding in 0usize..4,
        shard_count in 1usize..6,
    ) {
        let direction = if directed == 1 { Direction::Directed } else { Direction::Undirected };
        let g = build(&edges, direction, padding);
        let z = CompressedCsr::open_bytes(CompressedCsr::encode(&g, shard_count)).unwrap();
        prop_assert_eq!(z.num_nodes(), g.num_nodes());
        prop_assert_eq!(z.num_edges(), g.num_edges());
        prop_assert_eq!(z.direction(), g.direction());
        prop_assert_eq!(GraphView::max_degree(&z), g.max_degree());
        // All three read paths agree with the CSR.
        let mut scratch = Vec::new();
        for v in g.nodes() {
            prop_assert_eq!(z.neighbors_into(v, &mut scratch), g.neighbors(v));
            prop_assert_eq!(z.neighbors(v), g.neighbors(v));
            prop_assert_eq!(GraphView::degree(&z, v), g.degree(v));
        }
        prop_assert_eq!(&z.to_graph(), &g);
        // Shard manifest conformance: a contiguous cover whose per-shard
        // arc totals sum to the graph's stored arcs.
        let shards = z.shards();
        prop_assert!(!shards.is_empty());
        prop_assert_eq!(shards[0].start, 0);
        prop_assert_eq!(shards.last().unwrap().end as usize, g.num_nodes());
        for pair in shards.windows(2) {
            prop_assert_eq!(pair[0].end, pair[1].start);
        }
        let manifest_arcs: u64 = shards.iter().map(|s| s.arcs).sum();
        prop_assert_eq!(manifest_arcs, g.num_arcs() as u64);
        // Encoding the reopened snapshot is byte-identical (canonical form).
        prop_assert_eq!(
            CompressedCsr::encode(&z, shard_count),
            CompressedCsr::encode(&g, shard_count)
        );
    }

    #[test]
    fn out_of_core_builder_matches_the_in_ram_builder(
        edges in edge_set(24, 70),
        directed in 0u32..2,
    ) {
        let direction = if directed == 1 { Direction::Directed } else { Direction::Undirected };
        let in_ram = build(&edges, direction, 0);
        let dir = std::env::temp_dir();
        let mut builder = OutOfCoreBuilder::new(direction, &dir, 1 << 20)
            .with_num_nodes(in_ram.num_nodes());
        for &(u, v) in &edges {
            builder.push_edge(u, v);
        }
        prop_assert_eq!(&builder.finish_graph().unwrap(), &in_ram);
    }
}

#[test]
fn empty_and_isolated_only_graphs_round_trip() {
    for direction in [Direction::Undirected, Direction::Directed] {
        let empty = GraphBuilder::new(direction).build().unwrap();
        let z = CompressedCsr::open_bytes(CompressedCsr::encode(&empty, 3)).unwrap();
        assert_eq!(z.num_nodes(), 0);
        assert_eq!(z.to_graph(), empty);
        // All nodes isolated: every adjacency run is a single zero varint.
        let isolated = GraphBuilder::new(direction).with_num_nodes(7).build().unwrap();
        let z = CompressedCsr::open_bytes(CompressedCsr::encode(&isolated, 2)).unwrap();
        assert_eq!(z.num_nodes(), 7);
        assert_eq!(z.num_arcs(), 0);
        assert_eq!(z.to_graph(), isolated);
    }
}

#[test]
fn hub_wider_than_a_14_bit_degree_varint_round_trips() {
    // Degree 17_000 > 2^14: the leading degree varint needs three bytes,
    // exercising multi-byte varint paths the small proptest graphs never
    // reach. Node 0 is the hub; leaves are 1..=17_000.
    const LEAVES: u32 = 17_000;
    let mut builder = GraphBuilder::with_capacity(Direction::Undirected, LEAVES as usize);
    for leaf in 1..=LEAVES {
        builder.push_edge(0, leaf);
    }
    let g = builder.build().unwrap();
    let z = CompressedCsr::open_bytes(CompressedCsr::encode(&g, 4)).unwrap();
    assert_eq!(GraphView::degree(&z, 0), LEAVES as usize);
    assert_eq!(GraphView::max_degree(&z), LEAVES as usize);
    let mut scratch = Vec::new();
    assert_eq!(z.neighbors_into(0, &mut scratch), g.neighbors(0));
    assert_eq!(z.to_graph(), g);
}

#[test]
fn out_of_core_spills_are_invisible_in_the_result() {
    // 3_000 arcs against the minimum (1_024-arc) spill budget force
    // multiple sorted run files; the merged snapshot must be identical to
    // the in-RAM encoding all the same.
    let dir = std::env::temp_dir();
    let mut in_ram = GraphBuilder::new(Direction::Directed);
    let mut out_of_core = OutOfCoreBuilder::new(Direction::Directed, &dir, 1);
    let mut x = 7u64;
    for _ in 0..3_000 {
        // Deterministic xorshift stream of (u, v) pairs over 120 nodes.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let u = (x % 120) as NodeId;
        let v = ((x >> 32) % 120) as NodeId;
        if u != v {
            in_ram.push_edge(u, v);
            out_of_core.push_edge(u, v);
        }
    }
    let in_ram = in_ram.with_num_nodes(120).build().unwrap();
    assert!(out_of_core.spilled_runs() >= 1, "budget must have forced spills");

    let path = scratch_path("spill");
    let _cleanup = Cleanup(path.clone());
    let stats = out_of_core.with_num_nodes(120).finish_snapshot(3, &path).unwrap();
    assert!(stats.spilled_runs >= 1);
    assert_eq!(stats.num_edges, in_ram.num_edges());

    let z = CompressedCsr::open_path(&path).unwrap();
    assert_eq!(z.to_graph(), in_ram);
    assert_eq!(std::fs::read(&path).unwrap(), CompressedCsr::encode(&in_ram, 3));
}

#[test]
fn mmap_and_heap_opens_agree() {
    let g = build(&[(0, 1), (1, 2), (0, 2), (2, 3)], Direction::Undirected, 2);
    let path = scratch_path("mmap");
    let _cleanup = Cleanup(path.clone());
    CompressedCsr::write_snapshot(&g, 2, &path).unwrap();
    let mapped = CompressedCsr::open_path(&path).unwrap();
    assert!(mapped.is_mapped(), "a file open should be zero-copy mapped");
    assert_eq!(mapped.to_graph(), g);
    let heap = CompressedCsr::open_bytes(std::fs::read(&path).unwrap()).unwrap();
    assert!(!heap.is_mapped());
    assert_eq!(heap.to_graph(), g);
    assert_eq!(mapped.snapshot_bytes(), heap.snapshot_bytes());
}

// ---------------------------------------------------------------------
// Malformed corpus: truncations, flips, restamped structural lies
// ---------------------------------------------------------------------

/// A nonempty fixture on which *every* single-byte change is detectable
/// (an empty graph's direction flag, for instance, would flip silently).
fn fixture_bytes() -> Vec<u8> {
    let g = build(&[(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], Direction::Undirected, 1);
    CompressedCsr::encode(&g, 2)
}

#[test]
fn every_truncation_point_is_rejected() {
    let bytes = fixture_bytes();
    for cut in 0..bytes.len() {
        let err = CompressedCsr::open_bytes(bytes[..cut].to_vec())
            .err()
            .unwrap_or_else(|| panic!("cut at {cut} accepted"));
        assert!(matches!(err, GraphError::Decode(_)), "cut at {cut}: expected Decode, got {err:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn corrupting_any_byte_is_rejected_not_a_panic(
        position in 0usize..1 << 16,
        flip in 1u8..=255,
    ) {
        let mut bytes = fixture_bytes();
        let at = position % bytes.len();
        bytes[at] ^= flip;
        prop_assert!(
            CompressedCsr::open_bytes(bytes).is_err(),
            "flip {flip:#04x} at byte {at} accepted"
        );
    }
}

/// Overwrites a little-endian `u64` header field and reopens. The header
/// is outside the checksummed body, so no restamp is needed — the lie
/// must fall to the structural validators.
fn with_header_lie(field_at: usize, value: u64) -> GraphError {
    let mut bytes = fixture_bytes();
    bytes[field_at..field_at + 8].copy_from_slice(&value.to_le_bytes());
    CompressedCsr::open_bytes(bytes).expect_err("lying header accepted")
}

#[test]
fn lying_header_counts_are_typed_errors_without_oom() {
    // A u64::MAX node count must be rejected by checked layout arithmetic
    // *before* any proportional allocation — this test would OOM the
    // process otherwise.
    match with_header_lie(8, u64::MAX) {
        GraphError::Overflow { .. } | GraphError::Decode(_) => {}
        other => panic!("expected Overflow/Decode, got {other:?}"),
    }
    // A huge-but-addressable node count must fail on the layout bound,
    // not allocate a 32 GiB offset table.
    match with_header_lie(8, 1 << 32) {
        GraphError::Overflow { .. } | GraphError::Decode(_) => {}
        other => panic!("expected Overflow/Decode, got {other:?}"),
    }
    // Edge- and arc-count lies are internally consistent sizes, so they
    // must fall to the cross-checks against the decoded data region.
    assert!(matches!(with_header_lie(16, 1), GraphError::Invariant(_)));
    assert!(matches!(with_header_lie(24, 3), GraphError::Invariant(_)));
    // A data-length lie breaks the layout before any decode.
    assert!(matches!(with_header_lie(36, 5), GraphError::Decode(_)));
}

#[test]
fn flipping_the_direction_flag_is_caught_by_arc_consistency() {
    // The flag byte is in the header (not checksummed): flipping an
    // undirected snapshot to directed must fail because the stored arcs
    // are twice the claimed edge count.
    let mut bytes = fixture_bytes();
    bytes[6] ^= 1;
    assert!(matches!(CompressedCsr::open_bytes(bytes).unwrap_err(), GraphError::Invariant(_)));
}

#[test]
fn restamped_shard_manifest_lies_are_rejected() {
    let bytes = fixture_bytes();
    // Shard record 0 starts right after the header: start, end, arcs.
    // Claim one arc too many and restamp so the checksum is clean.
    let mut lie = bytes.clone();
    let arcs_at = HEADER_LEN + 16;
    let claimed = u64::from_le_bytes(lie[arcs_at..arcs_at + 8].try_into().unwrap());
    lie[arcs_at..arcs_at + 8].copy_from_slice(&(claimed + 1).to_le_bytes());
    restamp_checksum(&mut lie).unwrap();
    assert!(matches!(CompressedCsr::open_bytes(lie).unwrap_err(), GraphError::Invariant(_)));

    // An out-of-bounds shard range behind a clean checksum.
    let mut oob = bytes;
    oob[HEADER_LEN + 8..HEADER_LEN + 16].copy_from_slice(&u64::MAX.to_le_bytes());
    restamp_checksum(&mut oob).unwrap();
    assert!(matches!(CompressedCsr::open_bytes(oob).unwrap_err(), GraphError::Invariant(_)));
}

#[test]
fn restamped_degree_lies_are_rejected() {
    // Node 0 of the fixture has degree 2 (neighbours 1 and 3): its run
    // starts with the degree varint at the start of the data region.
    // Inflating it makes the decoder run past the node's offset span.
    let bytes = fixture_bytes();
    let shard_records = 2 * 24;
    let offsets = (fixture_node_count() + 1) * 8;
    let data_at = HEADER_LEN + shard_records + offsets;
    let mut lie = bytes;
    assert_eq!(lie[data_at], 2, "fixture layout changed: node 0 degree varint");
    lie[data_at] = 3;
    restamp_checksum(&mut lie).unwrap();
    let err = CompressedCsr::open_bytes(lie).unwrap_err();
    assert!(
        matches!(err, GraphError::Decode(_) | GraphError::Invariant(_)),
        "unexpected error {err:?}"
    );
}

fn fixture_node_count() -> usize {
    5 // nodes 0..=3 plus one isolated padding node
}
