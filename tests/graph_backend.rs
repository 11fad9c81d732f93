//! Backend-obliviousness: kernels, utilities and the serving stack must
//! produce bit-identical results whether the graph is backed by the
//! in-RAM CSR, the compressed `PSRZ` snapshot, or degree-balanced shards.
//!
//! The serving pipeline reads its base purely through
//! [`psr_graph::GraphView`], so a divergence here means a backend decodes
//! different adjacency than the CSR it was built from — exactly the class
//! of bug the compressed format's validators cannot catch (they prove
//! internal consistency, not equivalence).
//!
//! The `#[ignore]`d test is the ISSUE's acceptance run: the full-scale
//! Twitter-like preset and a LiveJournal-class R-MAT synthetic served end
//! to end through the compressed backend inside a documented memory
//! budget (`cargo test --release -- --ignored graph_backend`).

use std::sync::Arc;

use psr_core::serving::{BatchRequest, RecommendationService, ServiceConfig};
use psr_datasets::{livejournal_like_snapshot, twitter_like, wiki_vote_like, PresetConfig};
use psr_graph::algo::{common_neighbor_count, common_neighbor_counts};
use psr_graph::{CompressedCsr, DeltaGraph, Graph, GraphBackend, GraphView, NodeId, ShardedGraph};
use psr_utility::extra::{AdamicAdar, Jaccard};
use psr_utility::{CommonNeighbors, UtilityFunction, WeightedPaths};

fn wiki() -> Graph {
    wiki_vote_like(PresetConfig::scaled(0.05, 2011)).unwrap().0
}

/// The three backings of the same graph, plus the graph itself.
fn backings(graph: &Graph) -> (Arc<CompressedCsr>, Arc<ShardedGraph>) {
    let compressed =
        CompressedCsr::open_bytes(CompressedCsr::encode(graph, 4)).expect("fresh snapshot");
    let sharded = ShardedGraph::from_view(graph, 4);
    (Arc::new(compressed), Arc::new(sharded))
}

#[test]
fn kernels_agree_across_backends() {
    let graph = wiki();
    let (compressed, sharded) = backings(&graph);
    for v in graph.nodes().step_by(7) {
        let expect = common_neighbor_counts(&graph, v);
        assert_eq!(common_neighbor_counts(compressed.as_ref(), v), expect);
        assert_eq!(common_neighbor_counts(sharded.as_ref(), v), expect);
    }
    for (u, v) in [(0, 1), (3, 11), (40, 41), (5, 100)] {
        let expect = common_neighbor_count(&graph, u, v);
        assert_eq!(common_neighbor_count(compressed.as_ref(), u, v), expect);
        assert_eq!(common_neighbor_count(sharded.as_ref(), u, v), expect);
    }
}

#[test]
fn utilities_agree_across_backends() {
    let graph = wiki();
    let (compressed, sharded) = backings(&graph);
    let utilities: [Box<dyn UtilityFunction>; 2] =
        [Box::new(CommonNeighbors), Box::new(WeightedPaths::default())];
    for utility in &utilities {
        for target in (0..graph.num_nodes() as NodeId).step_by(211) {
            let expect = utility.utilities_for(&graph, target);
            assert_eq!(utility.utilities_for(compressed.as_ref(), target), expect);
            assert_eq!(utility.utilities_for(sharded.as_ref(), target), expect);
        }
    }
}

#[test]
fn serving_is_bit_identical_across_backends() {
    let graph = wiki();
    let (compressed, sharded) = backings(&graph);
    let requests: Vec<BatchRequest> = graph
        .nodes()
        .filter(|&v| graph.degree(v) > 0)
        .step_by(5)
        .map(|target| BatchRequest { target, k: 3 })
        .collect();
    let service = |backend: GraphBackend| {
        RecommendationService::builder(backend, Arc::new(CommonNeighbors))
            .config(ServiceConfig { threads: Some(2), ..Default::default() })
            .build()
    };
    let csr = service(GraphBackend::from(graph));
    let expect = csr.serve_batch(&requests, 42);
    let via_compressed = service(GraphBackend::Compressed(Arc::clone(&compressed)));
    assert_eq!(via_compressed.backend_kind(), "compressed");
    assert_eq!(via_compressed.serve_batch(&requests, 42), expect);
    let via_sharded = service(GraphBackend::Sharded(sharded));
    assert_eq!(via_sharded.backend_kind(), "sharded");
    assert_eq!(via_sharded.serve_batch(&requests, 42), expect);
}

#[test]
fn compressed_serving_materialises_only_the_touched_working_set() {
    // The memory contract of the compressed backend: serving decodes (and
    // caches) at most the two-hop closure the requests actually read —
    // never the whole graph. A larger, sparser fixture than `wiki()` so
    // the closure is a strict subset.
    let graph = wiki_vote_like(PresetConfig::scaled(0.5, 2011)).unwrap().0;
    let compressed = Arc::new(CompressedCsr::open_bytes(CompressedCsr::encode(&graph, 4)).unwrap());
    // The two lowest-degree connected nodes keep the closure smallest (in
    // a scale-free graph even those reach hubs, so the closure is large —
    // the *bound* is what matters, not its size).
    let mut connected: Vec<NodeId> = graph.nodes().filter(|&v| graph.degree(v) > 0).collect();
    connected.sort_by_key(|&v| graph.degree(v));
    let requests: Vec<BatchRequest> =
        connected[..2].iter().map(|&target| BatchRequest { target, k: 2 }).collect();
    // CommonNeighbors reads each target, its neighbours, and *their*
    // neighbours: the union of two-hop closures bounds the decode cache.
    let mut closure = std::collections::HashSet::new();
    for request in &requests {
        closure.insert(request.target);
        for &v in graph.neighbors(request.target) {
            closure.insert(v);
            closure.extend(graph.neighbors(v).iter().copied());
        }
    }
    let service = RecommendationService::builder(
        GraphBackend::Compressed(Arc::clone(&compressed)),
        Arc::new(CommonNeighbors),
    )
    .config(ServiceConfig { threads: Some(1), ..Default::default() })
    .build();
    for outcome in service.serve_batch(&requests, 9) {
        outcome.expect("connected wiki targets must serve");
    }
    let touched = compressed.cached_nodes();
    assert!(touched > 0, "serving must have decoded something");
    assert!(
        touched <= closure.len(),
        "{touched} nodes decoded, but the requests' two-hop closure holds only {}",
        closure.len()
    );
    assert!(
        closure.len() < compressed.num_nodes(),
        "fixture too dense for the bound to mean anything"
    );
    assert!(
        touched < compressed.num_nodes(),
        "serving two targets must not materialise the whole graph"
    );
}

#[test]
fn utility_walks_read_second_hops_without_caching_them() {
    // Common neighbours, Adamic–Adar, weighted paths and Jaccard read
    // every hop after the first through `GraphView::neighbors_into`: the
    // vectors are bit-identical over CSR, compressed and an overlay on
    // compressed, and the decode cache ends up holding the scored
    // targets' own lists and nothing else.
    let graph = wiki();
    let targets: Vec<NodeId> = graph.nodes().take(200).collect();
    assert_eq!(targets.len(), 200);
    let fresh = || Arc::new(CompressedCsr::open_bytes(CompressedCsr::encode(&graph, 4)).unwrap());
    let compressed = GraphBackend::Compressed(fresh());
    let overlay = DeltaGraph::with_backend(GraphBackend::Compressed(fresh()));
    let utilities: [Box<dyn UtilityFunction>; 4] = [
        Box::new(CommonNeighbors),
        Box::new(AdamicAdar),
        Box::new(WeightedPaths::default()),
        Box::new(Jaccard),
    ];
    let bits = |u: &psr_utility::UtilityVector| -> Vec<(NodeId, u64)> {
        u.nonzero().iter().map(|&(v, x)| (v, x.to_bits())).collect()
    };
    for utility in &utilities {
        for &target in &targets {
            let expect = utility.utilities_for(&graph, target);
            for (name, view) in
                [("compressed", &compressed as &dyn GraphView), ("overlay", &overlay)]
            {
                let got = utility.utilities_for(view, target);
                assert_eq!(bits(&got), bits(&expect), "{} {name} target {target}", utility.name());
                assert_eq!(got.num_zero(), expect.num_zero());
            }
        }
    }
    let own_lists: usize =
        targets.iter().map(|&t| graph.degree(t) * std::mem::size_of::<NodeId>()).sum();
    for (name, backend) in [("compressed", &compressed), ("overlay", overlay.base())] {
        let stats = backend.cache_stats().expect("compressed backends report a cache");
        assert_eq!(stats.cached_nodes, targets.len(), "{name}: only the targets are cached");
        assert_eq!(stats.cached_bytes, own_lists, "{name}: no second-hop list is cached");
        assert!(stats.misses > stats.cached_nodes as u64, "{name}: second hops were decoded");
    }
}

/// The acceptance run (ignored: seconds of work at full scale, release
/// build recommended). Serves the full-scale Twitter-like preset and a
/// LiveJournal-class R-MAT synthetic end to end through the compressed
/// backend, asserting the memory budgets documented in
/// `crates/graph/README.md`: ≤ 8 MiB total footprint (snapshot + cache
/// spine + touched adjacency) for Twitter from a heap snapshot, ≤ 64 MiB
/// of heap for the mmap-served LiveJournal-class build.
#[test]
#[ignore]
fn full_scale_presets_serve_through_the_compressed_backend() {
    // --- Twitter-like at the paper's full scale, encoded in RAM --------
    let (graph, _) = twitter_like(PresetConfig::scaled(1.0, 2011)).unwrap();
    let compressed = Arc::new(CompressedCsr::open_bytes(CompressedCsr::encode(&graph, 8)).unwrap());
    let requests: Vec<BatchRequest> = graph
        .nodes()
        .filter(|&v| graph.degree(v) > 0)
        .step_by(487)
        .map(|target| BatchRequest { target, k: 5 })
        .collect();
    assert!(requests.len() >= 100, "acceptance batch must be non-trivial");
    let service = RecommendationService::builder(
        GraphBackend::Compressed(Arc::clone(&compressed)),
        Arc::new(CommonNeighbors),
    )
    .config(ServiceConfig { threads: Some(4), ..Default::default() })
    .build();
    let served =
        service.serve_batch(&requests, 1).into_iter().filter(|outcome| outcome.is_ok()).count();
    assert!(served * 2 > requests.len(), "most full-scale targets must serve");
    // Documented budget (crates/graph/README.md): snapshot + 16 B/node
    // cache spine + decoded lists of touched nodes, ≤ 8 MiB for the
    // full-scale Twitter preset. (The snapshot alone must also beat the
    // resident CSR; the spine is the price of O(1) cached reads and only
    // amortises on graphs with more arcs per node slot.)
    assert!(
        compressed.snapshot_bytes() < graph.resident_bytes(),
        "snapshot {} B must compress below the resident CSR ({} B)",
        compressed.snapshot_bytes(),
        graph.resident_bytes()
    );
    let footprint =
        compressed.snapshot_bytes() + compressed.cache_overhead_bytes() + compressed.cached_bytes();
    assert!(
        footprint < 8 << 20,
        "compressed serving footprint {footprint} B exceeds the documented 8 MiB budget"
    );
    assert!(
        compressed.cached_nodes() < compressed.num_nodes() / 4,
        "sampled serving must not materialise most of the graph"
    );
    drop(service);
    drop(graph);

    // --- LiveJournal-class synthetic, built out of core, served mmapped --
    let path =
        std::env::temp_dir().join(format!("psr-graph-backend-accept-{}.psrz", std::process::id()));
    let stats = livejournal_like_snapshot(
        PresetConfig::scaled(0.1, 2026),
        1 << 22, // 4 Mi-arc spill budget: the documented build-side cap
        8,
        &path,
    )
    .expect("out-of-core build");
    assert!(stats.num_nodes > 400_000, "LiveJournal-class scale");
    let lj = Arc::new(CompressedCsr::open_path(&path).expect("snapshot validates"));
    assert!(lj.is_mapped(), "file serving must be zero-copy mapped");
    let targets: Vec<BatchRequest> = (0..lj.num_nodes() as NodeId)
        .filter(|&v| lj.degree(v) > 0)
        .step_by(9_973)
        .map(|target| BatchRequest { target, k: 5 })
        .collect();
    let service = RecommendationService::builder(
        GraphBackend::Compressed(Arc::clone(&lj)),
        Arc::new(CommonNeighbors),
    )
    .config(ServiceConfig { threads: Some(4), ..Default::default() })
    .build();
    let served =
        service.serve_batch(&targets, 2).into_iter().filter(|outcome| outcome.is_ok()).count();
    assert!(served * 2 > targets.len(), "most LiveJournal-class targets must serve");
    // Documented budget (crates/graph/README.md) for mmap-backed serving:
    // the heap holds only the cache spine + touched lists (the snapshot
    // itself is file-backed pages) — ≤ 64 MiB at this scale.
    let heap = lj.cache_overhead_bytes() + lj.cached_bytes();
    assert!(
        heap < 64 << 20,
        "mmap-serving heap working set {heap} B exceeds the documented 64 MiB budget"
    );
    assert!(
        lj.cached_nodes() < lj.num_nodes() / 10,
        "{} of {} nodes decoded for {} sampled targets",
        lj.cached_nodes(),
        lj.num_nodes(),
        targets.len()
    );
    let _ = std::fs::remove_file(&path);
}
