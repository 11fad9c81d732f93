//! Delta/varint-compressed sorted-adjacency snapshots (`PSRZ` v1).
//!
//! The wire format (everything little-endian; see `crates/graph/README.md`
//! for the byte-level reference):
//!
//! ```text
//! offset  field
//! 0       magic            b"PSRZ"
//! 4       version          u16 (= 1)
//! 6       flags            u8  (bit 0: directed)
//! 7       reserved         u8  (= 0)
//! 8       num_nodes        u64
//! 16      num_edges        u64   (logical edges; undirected counted once)
//! 24      num_arcs         u64   (stored arcs)
//! 32      shard_count      u32
//! 36      data_len         u64   (bytes in the varint data region)
//! 44      checksum         u64   (FNV-1a-64 over the body, i.e. bytes 52..)
//! 52      shard manifest   shard_count × (start u64, end u64, arcs u64)
//!         offset table     (num_nodes + 1) × u64 byte offsets into data
//!         data region      per node: varint degree, varint first neighbour,
//!                          then varint (gap − 1) per subsequent neighbour
//! ```
//!
//! Varints are LEB128 (7 payload bits per byte, high bit = continue). Because
//! neighbour lists are strictly ascending, consecutive gaps are ≥ 1, so the
//! encoder stores `gap − 1` and small-world adjacency compresses to ~1 byte
//! per arc.
//!
//! **Validation policy: validate on open, trust on read.** [`CompressedCsr::open_bytes`]
//! / [`CompressedCsr::open_path`] verify the checksum and then decode every
//! node once (bounds-checked varints, exact span consumption, strictly
//! ascending in-range lists, no self-loops, arc/edge totals, shard-manifest
//! consistency, probabilistic undirected symmetry) before any read is
//! served — malformed bytes yield a typed [`GraphError`], never a panic.
//! After open, per-read decoding assumes the bytes are unchanged; mapped
//! snapshot files must therefore stay immutable while open (see the vendored
//! `memmap2` docs).

use std::fs::File;
use std::io::Read as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::builder::Direction;
use crate::csr::Graph;
use crate::error::GraphError;
use crate::node::{ix, NodeId};
use crate::shard::{degree_balanced_shards, ShardRange};
use crate::view::GraphView;
use crate::Result;

/// Snapshot magic bytes.
pub const MAGIC: &[u8; 4] = b"PSRZ";
/// Snapshot format version.
pub const VERSION: u16 = 1;
/// Fixed header length in bytes (the checksum covers everything after it).
pub const HEADER_LEN: usize = 52;
const SHARD_RECORD_LEN: usize = 24;
const CHECKSUM_AT: usize = 44;

// --- FNV-1a-64 -------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a-64 hasher (checksums and the symmetry accumulator).
#[derive(Debug, Clone)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of a byte slice — the checksum function used for the snapshot
/// body. Public so tests and external tooling can restamp deliberately
/// tampered snapshots and exercise the structural validators behind the
/// checksum gate.
pub fn body_checksum(body: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(body);
    h.finish()
}

/// Recomputes and rewrites the header checksum of a serialized snapshot.
/// Intended for corpus-building tests/tooling; returns an error if the buffer
/// is shorter than a header.
pub fn restamp_checksum(bytes: &mut [u8]) -> Result<()> {
    if bytes.len() < HEADER_LEN {
        return Err(GraphError::Decode("buffer shorter than a snapshot header".into()));
    }
    let sum = body_checksum(&bytes[HEADER_LEN..]);
    bytes[CHECKSUM_AT..CHECKSUM_AT + 8].copy_from_slice(&sum.to_le_bytes());
    Ok(())
}

// --- varints ---------------------------------------------------------------

/// Appends `value` as a LEB128 varint.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of `value` as a LEB128 varint.
pub(crate) fn varint_len(mut value: u64) -> usize {
    let mut len = 1;
    while value >= 0x80 {
        value >>= 7;
        len += 1;
    }
    len
}

/// Reads a LEB128 varint at `*pos`, advancing it. Bounds- and
/// overflow-checked: returns a typed error on truncation or a varint wider
/// than 64 bits.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or_else(|| GraphError::Decode("truncated varint in data region".into()))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(GraphError::Decode("varint overflows u64".into()));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends one node's adjacency encoding (varint degree, varint first
/// neighbour, varint `gap − 1` deltas). `neighbors` must be strictly
/// ascending.
pub(crate) fn encode_adjacency(neighbors: &[NodeId], out: &mut Vec<u8>) {
    write_varint(out, neighbors.len() as u64);
    let mut prev: Option<NodeId> = None;
    for &t in neighbors {
        match prev {
            None => write_varint(out, u64::from(t)),
            Some(p) => {
                debug_assert!(t > p, "adjacency list must be strictly ascending");
                write_varint(out, u64::from(t - p) - 1);
            }
        }
        prev = Some(t);
    }
}

// --- backing ---------------------------------------------------------------

/// Where the snapshot bytes live.
#[derive(Debug)]
enum Backing {
    /// Whole file (or encoded buffer) resident on the heap.
    Heap(Vec<u8>),
    /// Zero-copy read-only mapping of the snapshot file.
    Mapped(memmap2::Mmap),
}

impl Backing {
    fn as_slice(&self) -> &[u8] {
        match self {
            Backing::Heap(v) => v,
            Backing::Mapped(m) => m,
        }
    }
}

// --- CompressedCsr ---------------------------------------------------------

/// A validated, read-only compressed graph snapshot implementing
/// [`GraphView`].
///
/// Neighbour runs are decoded on the fly. [`GraphView::neighbors`] memoises
/// each node's decoded list in a per-node [`OnceLock`] cell (so repeated
/// reads are plain slice borrows); [`GraphView::neighbors_into`] returns
/// the cached list when one exists and otherwise decodes into the caller's
/// scratch without caching, the read path for walks and streaming scans.
///
/// Memory budget: the snapshot bytes (mmap-backed when opened from a path)
/// plus `num_nodes × size_of::<OnceLock<Box<[NodeId]>>>()` for the cache
/// spine plus the decoded lists of nodes read through
/// [`GraphView::neighbors`] only. On the serving path those are the
/// targets' own lists (candidate sets, first hops) and the endpoints of
/// applied mutations; the second hops of utility walks go through
/// [`GraphView::neighbors_into`] and are never cached.
#[derive(Debug)]
pub struct CompressedCsr {
    bytes: Backing,
    direction: Direction,
    num_nodes: usize,
    num_edges: usize,
    num_arcs: usize,
    max_degree: usize,
    shards: Vec<ShardRange>,
    /// Byte position of the offset table within the snapshot.
    offsets_at: usize,
    /// Byte position of the data region within the snapshot.
    data_at: usize,
    cache: Box<[OnceLock<Box<[NodeId]>>]>,
    /// Reads served from the cache (no decode happened).
    cache_hits: AtomicU64,
    /// Uncached reads that decoded the list (through
    /// [`GraphView::neighbors`] or [`GraphView::neighbors_into`]).
    cache_misses: AtomicU64,
}

impl CompressedCsr {
    // -- encoding ----------------------------------------------------------

    /// Serializes any [`GraphView`] into a `PSRZ` v1 snapshot with a
    /// degree-balanced `shard_count`-way manifest.
    pub fn encode<V: GraphView + ?Sized>(view: &V, shard_count: usize) -> Vec<u8> {
        let n = view.num_nodes();
        let shards = degree_balanced_shards(view, shard_count);
        // Pass 1: per-node encoded byte lengths -> offset table + data_len.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut data_len = 0u64;
        for v in 0..n {
            let list = view.neighbors(v as NodeId);
            let mut node_len = varint_len(list.len() as u64);
            let mut prev: Option<NodeId> = None;
            for &t in list {
                node_len += match prev {
                    None => varint_len(u64::from(t)),
                    Some(p) => varint_len(u64::from(t - p) - 1),
                };
                prev = Some(t);
            }
            data_len += node_len as u64;
            offsets.push(data_len);
        }
        let body_len = shards.len() * SHARD_RECORD_LEN + (n + 1) * 8 + data_len as usize;
        let mut out = Vec::with_capacity(HEADER_LEN + body_len);
        // Header (checksum patched at the end).
        out.extend_from_slice(&header_bytes(
            view.direction(),
            n as u64,
            view.num_edges() as u64,
            offsets_total_arcs(view),
            shards.len() as u32,
            data_len,
        ));
        // Body: shard manifest, offset table, data region.
        out.extend_from_slice(&shard_manifest_bytes(&shards));
        for &o in &offsets {
            out.extend_from_slice(&o.to_le_bytes());
        }
        for v in 0..n {
            encode_adjacency(view.neighbors(v as NodeId), &mut out);
        }
        restamp_checksum(&mut out).expect("encoded snapshot always has a header");
        out
    }

    /// Encodes `view` and writes the snapshot to `path`.
    pub fn write_snapshot<V: GraphView + ?Sized>(
        view: &V,
        shard_count: usize,
        path: &Path,
    ) -> Result<()> {
        std::fs::write(path, Self::encode(view, shard_count))?;
        Ok(())
    }

    // -- opening -----------------------------------------------------------

    /// Opens a snapshot from an in-memory buffer, validating it fully.
    pub fn open_bytes(bytes: Vec<u8>) -> Result<CompressedCsr> {
        Self::open_backing(Backing::Heap(bytes))
    }

    /// Opens a snapshot file, preferring a zero-copy read-only memory map
    /// and falling back to a heap read where mapping is unavailable. The
    /// file must not be modified while the snapshot is open.
    pub fn open_path(path: &Path) -> Result<CompressedCsr> {
        let mut file = File::open(path)?;
        match memmap2::Mmap::map(&file) {
            Ok(map) => Self::open_backing(Backing::Mapped(map)),
            Err(_) => {
                let mut buf = Vec::new();
                file.read_to_end(&mut buf)?;
                Self::open_backing(Backing::Heap(buf))
            }
        }
    }

    fn open_backing(backing: Backing) -> Result<CompressedCsr> {
        let header = Header::parse(backing.as_slice())?;
        let parsed = validate_body(backing.as_slice(), &header)?;
        Ok(CompressedCsr {
            bytes: backing,
            direction: header.direction,
            num_nodes: header.num_nodes,
            num_edges: header.num_edges,
            num_arcs: header.num_arcs,
            max_degree: parsed.max_degree,
            shards: parsed.shards,
            offsets_at: header.offsets_at,
            data_at: header.data_at,
            cache: (0..header.num_nodes).map(|_| OnceLock::new()).collect(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        })
    }

    // -- reads -------------------------------------------------------------

    #[inline]
    fn byte_range(&self, v: usize) -> (usize, usize) {
        let at = self.offsets_at + v * 8;
        let bytes = self.bytes.as_slice();
        let lo = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
        let hi = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        (self.data_at + lo, self.data_at + hi)
    }

    fn decode_node(&self, v: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let (lo, hi) = self.byte_range(v);
        let bytes = &self.bytes.as_slice()[lo..hi];
        let mut pos = 0usize;
        // Validated at open; a failure here means the backing bytes changed
        // underneath us, which the open contract forbids.
        let corrupt = "snapshot mutated while open";
        let degree = read_varint(bytes, &mut pos).expect(corrupt);
        out.reserve(degree as usize);
        let mut prev = 0u64;
        for i in 0..degree {
            let raw = read_varint(bytes, &mut pos).expect(corrupt);
            let t = if i == 0 { raw } else { prev + raw + 1 };
            out.push(t as NodeId);
            prev = t;
        }
    }

    /// The shard manifest embedded in the snapshot.
    pub fn shards(&self) -> &[ShardRange] {
        &self.shards
    }

    /// Number of stored arcs (see [`Graph::num_arcs`]).
    pub fn num_arcs(&self) -> usize {
        self.num_arcs
    }

    /// Total size of the snapshot bytes (header + manifest + offsets + data).
    pub fn snapshot_bytes(&self) -> usize {
        self.bytes.as_slice().len()
    }

    /// Size of the varint-encoded adjacency data region alone.
    pub fn data_region_len(&self) -> usize {
        self.bytes.as_slice().len() - self.data_at
    }

    /// Whether the snapshot is served from a memory map (vs a heap buffer).
    pub fn is_mapped(&self) -> bool {
        matches!(self.bytes, Backing::Mapped(_))
    }

    /// Fixed heap overhead of the per-node decode cache spine.
    pub fn cache_overhead_bytes(&self) -> usize {
        self.num_nodes * std::mem::size_of::<OnceLock<Box<[NodeId]>>>()
    }

    /// Number of nodes whose decoded neighbour lists are currently cached —
    /// the materialised working set.
    pub fn cached_nodes(&self) -> usize {
        self.cache.iter().filter(|c| c.get().is_some()).count()
    }

    /// Heap bytes held by decoded neighbour lists in the cache.
    pub fn cached_bytes(&self) -> usize {
        self.cache
            .iter()
            .filter_map(|c| c.get())
            .map(|list| list.len() * std::mem::size_of::<NodeId>())
            .sum()
    }

    /// [`GraphView::neighbors`] and [`GraphView::neighbors_into`] reads
    /// served from the decode cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Reads that had to decode. A [`GraphView::neighbors_into`] decode
    /// counts but caches nothing, and two threads racing on the same cold
    /// node may both count a miss even though one decode wins the
    /// `OnceLock`, so misses can exceed [`CompressedCsr::cached_nodes`].
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// All decode-cache statistics in one read, for
    /// [`GraphBackend::cache_stats`](crate::GraphBackend::cache_stats).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits(),
            misses: self.cache_misses(),
            cached_nodes: self.cached_nodes(),
            cached_bytes: self.cached_bytes(),
        }
    }

    /// Materialises the snapshot into an in-RAM CSR [`Graph`].
    pub fn to_graph(&self) -> Graph {
        Graph::from_view(self)
    }
}

/// Decode-cache statistics of a [`CompressedCsr`], readable through
/// [`GraphBackend::cache_stats`](crate::GraphBackend::cache_stats) without
/// downcasting to the concrete backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Neighbour reads served straight from the cache.
    pub hits: u64,
    /// Neighbour reads that decoded the list (see
    /// [`CompressedCsr::cache_misses`] for the racing-miss caveat).
    pub misses: u64,
    /// Nodes whose decoded lists are currently materialised.
    pub cached_nodes: usize,
    /// Heap bytes those decoded lists hold.
    pub cached_bytes: usize,
}

/// Serializes the fixed header with a zero checksum placeholder (patch it
/// afterwards with [`restamp_checksum`] or by writing [`body_checksum`] of
/// the body at byte 44). Shared by the in-memory encoder and the out-of-core
/// builder.
pub(crate) fn header_bytes(
    direction: Direction,
    num_nodes: u64,
    num_edges: u64,
    num_arcs: u64,
    shard_count: u32,
    data_len: u64,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(MAGIC);
    h[4..6].copy_from_slice(&VERSION.to_le_bytes());
    h[6] = if direction == Direction::Directed { 1 } else { 0 };
    h[7] = 0; // reserved
    h[8..16].copy_from_slice(&num_nodes.to_le_bytes());
    h[16..24].copy_from_slice(&num_edges.to_le_bytes());
    h[24..32].copy_from_slice(&num_arcs.to_le_bytes());
    h[32..36].copy_from_slice(&shard_count.to_le_bytes());
    h[36..44].copy_from_slice(&data_len.to_le_bytes());
    // h[44..52] stays 0: checksum placeholder.
    h
}

/// Serializes the shard manifest records.
pub(crate) fn shard_manifest_bytes(shards: &[ShardRange]) -> Vec<u8> {
    let mut out = Vec::with_capacity(shards.len() * SHARD_RECORD_LEN);
    for s in shards {
        out.extend_from_slice(&u64::from(s.start).to_le_bytes());
        out.extend_from_slice(&u64::from(s.end).to_le_bytes());
        out.extend_from_slice(&s.arcs.to_le_bytes());
    }
    out
}

/// Byte position of the header checksum field (for out-of-core patching).
pub(crate) const CHECKSUM_FIELD_AT: usize = CHECKSUM_AT;

/// Stored arc total of a view (`num_edges` doubled for undirected).
fn offsets_total_arcs<V: GraphView + ?Sized>(view: &V) -> u64 {
    match view.direction() {
        Direction::Directed => view.num_edges() as u64,
        Direction::Undirected => 2 * view.num_edges() as u64,
    }
}

impl GraphView for CompressedCsr {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn direction(&self) -> Direction {
        self.direction
    }

    fn neighbors(&self, v: NodeId) -> &[NodeId] {
        assert!(ix(v) < self.num_nodes, "node {v} out of range");
        if let Some(cached) = self.cache[ix(v)].get() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.cache[ix(v)].get_or_init(|| {
            let mut buf = Vec::new();
            self.decode_node(ix(v), &mut buf);
            buf.into_boxed_slice()
        })
    }

    fn neighbors_into<'a>(&'a self, v: NodeId, scratch: &'a mut Vec<NodeId>) -> &'a [NodeId] {
        assert!(ix(v) < self.num_nodes, "node {v} out of range");
        if let Some(cached) = self.cache[ix(v)].get() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.decode_node(ix(v), scratch);
        scratch
    }

    fn degree(&self, v: NodeId) -> usize {
        assert!(ix(v) < self.num_nodes, "node {v} out of range");
        if let Some(cached) = self.cache[ix(v)].get() {
            return cached.len();
        }
        // Just the leading degree varint — no list decode.
        let (lo, hi) = self.byte_range(ix(v));
        let bytes = &self.bytes.as_slice()[lo..hi];
        let mut pos = 0usize;
        read_varint(bytes, &mut pos).expect("snapshot mutated while open") as usize
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }
}

// --- open-time validation --------------------------------------------------

struct Header {
    direction: Direction,
    num_nodes: usize,
    num_edges: usize,
    num_arcs: usize,
    shard_count: usize,
    data_len: usize,
    offsets_at: usize,
    data_at: usize,
}

impl Header {
    fn parse(bytes: &[u8]) -> Result<Header> {
        let decode_err = |msg: String| GraphError::Decode(msg);
        if bytes.len() < HEADER_LEN {
            return Err(decode_err(format!(
                "snapshot shorter than header: {} < {HEADER_LEN} bytes",
                bytes.len()
            )));
        }
        if &bytes[0..4] != MAGIC {
            return Err(decode_err("bad magic (expected PSRZ)".into()));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(decode_err(format!("unsupported snapshot version {version}")));
        }
        let flags = bytes[6];
        if flags & !1 != 0 {
            return Err(decode_err(format!("unknown flag bits {flags:#04x}")));
        }
        if bytes[7] != 0 {
            return Err(decode_err("nonzero reserved header byte".into()));
        }
        let direction = if flags & 1 == 1 { Direction::Directed } else { Direction::Undirected };
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let checked = |raw: u64, what: &'static str| -> Result<usize> {
            raw.try_into().map_err(|_| GraphError::Overflow { what, value: raw })
        };
        let num_nodes = checked(u64_at(8), "node count")?;
        if u32::try_from(num_nodes).is_err() {
            return Err(GraphError::Overflow {
                what: "node count (u32 ids)",
                value: num_nodes as u64,
            });
        }
        let num_edges = checked(u64_at(16), "edge count")?;
        let num_arcs = checked(u64_at(24), "arc count")?;
        let shard_count = u32::from_le_bytes(bytes[32..36].try_into().unwrap()) as usize;
        let data_len = checked(u64_at(36), "data region length")?;
        let expected_checksum = u64_at(CHECKSUM_AT);
        let overflow = || GraphError::Overflow { what: "snapshot layout bytes", value: u64::MAX };
        let shard_bytes = shard_count.checked_mul(SHARD_RECORD_LEN).ok_or_else(overflow)?;
        let offset_bytes =
            num_nodes.checked_add(1).and_then(|r| r.checked_mul(8)).ok_or_else(overflow)?;
        let offsets_at = HEADER_LEN.checked_add(shard_bytes).ok_or_else(overflow)?;
        let data_at = offsets_at.checked_add(offset_bytes).ok_or_else(overflow)?;
        let total = data_at.checked_add(data_len).ok_or_else(overflow)?;
        if bytes.len() < total {
            return Err(decode_err(format!(
                "snapshot truncated: {} bytes, layout requires {total}",
                bytes.len()
            )));
        }
        if bytes.len() > total {
            return Err(decode_err(format!(
                "{} trailing bytes after data region",
                bytes.len() - total
            )));
        }
        let actual = body_checksum(&bytes[HEADER_LEN..]);
        if actual != expected_checksum {
            return Err(decode_err(format!(
                "checksum mismatch: header {expected_checksum:#018x}, body {actual:#018x}"
            )));
        }
        Ok(Header {
            direction,
            num_nodes,
            num_edges,
            num_arcs,
            shard_count,
            data_len,
            offsets_at,
            data_at,
        })
    }
}

struct ValidatedBody {
    max_degree: usize,
    shards: Vec<ShardRange>,
}

/// Full structural decode pass: every node decoded once (bounds-checked),
/// offsets monotone and exactly consumed, lists strictly ascending, in range,
/// self-loop free; arc totals, edge-count consistency, shard-manifest
/// coverage, and (probabilistic) undirected symmetry.
fn validate_body(bytes: &[u8], h: &Header) -> Result<ValidatedBody> {
    let invariant = |msg: String| GraphError::Invariant(msg);
    let n = h.num_nodes;
    // Shard manifest: contiguous cover of [0, n).
    let mut shards = Vec::with_capacity(h.shard_count);
    for s in 0..h.shard_count {
        let at = HEADER_LEN + s * SHARD_RECORD_LEN;
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let start = u64_at(at);
        let end = u64_at(at + 8);
        let arcs = u64_at(at + 16);
        if start > end || end > n as u64 {
            return Err(invariant(format!("shard {s} range [{start}, {end}) out of bounds")));
        }
        shards.push(ShardRange { start: start as NodeId, end: end as NodeId, arcs });
    }
    if shards.is_empty() {
        return Err(invariant("snapshot has no shards".into()));
    }
    if shards[0].start != 0 || ix(shards.last().unwrap().end) != n {
        return Err(invariant("shard manifest does not cover the node range".into()));
    }
    for (i, pair) in shards.windows(2).enumerate() {
        if pair[0].end != pair[1].start {
            return Err(invariant(format!("shard manifest has a gap after shard {i}")));
        }
    }
    // Offset table.
    let off = |v: usize| -> u64 {
        let at = h.offsets_at + v * 8;
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    };
    if off(0) != 0 {
        return Err(invariant(format!("offsets[0] = {}, expected 0", off(0))));
    }
    if off(n) != h.data_len as u64 {
        return Err(invariant(format!(
            "last offset {} does not match data length {}",
            off(n),
            h.data_len
        )));
    }
    // Per-node decode.
    let data = &bytes[h.data_at..h.data_at + h.data_len];
    let mut total_arcs = 0u64;
    let mut max_degree = 0usize;
    let mut shard_cursor = 0usize;
    let mut shard_arcs = 0u64;
    let mut symmetry = 0u64;
    let mut prev_off = 0u64;
    while shard_cursor < shards.len() && shards[shard_cursor].end == 0 {
        if shards[shard_cursor].arcs != 0 {
            return Err(invariant(format!("zero-width shard {shard_cursor} claims arcs")));
        }
        shard_cursor += 1;
    }
    for v in 0..n {
        let lo = prev_off;
        let hi = off(v + 1);
        if hi < lo {
            return Err(invariant(format!("offsets not monotone at node {v}: {lo} > {hi}")));
        }
        if hi > h.data_len as u64 {
            return Err(invariant(format!(
                "offset {hi} of node {} exceeds data length {}",
                v + 1,
                h.data_len
            )));
        }
        prev_off = hi;
        let span = &data[lo as usize..hi as usize];
        let mut pos = 0usize;
        let degree = read_varint(span, &mut pos)?;
        let degree: usize = degree
            .try_into()
            .map_err(|_| GraphError::Overflow { what: "node degree", value: degree })?;
        let mut prev: Option<u64> = None;
        for i in 0..degree {
            let raw = read_varint(span, &mut pos)?;
            let t = if i == 0 {
                raw
            } else {
                let p = prev.unwrap();
                p.checked_add(raw)
                    .and_then(|x| x.checked_add(1))
                    .ok_or(GraphError::Overflow { what: "neighbour delta", value: raw })?
            };
            if t >= n as u64 {
                return Err(GraphError::NodeOutOfRange { node: t, num_nodes: n });
            }
            if t == v as u64 {
                return Err(GraphError::SelfLoop { node: t });
            }
            if h.direction == Direction::Undirected {
                // XOR of per-arc hashes over the unordered pair: symmetric
                // graphs cancel to 0. Probabilistic (an adversarial multiset
                // of asymmetric arcs could cancel), but single missing or
                // spurious arcs are always caught; the exact check is done by
                // `Graph::try_from_parts` whenever a snapshot is materialised.
                let (a, b) = if (v as u64) < t { (v as u64, t) } else { (t, v as u64) };
                let mut hasher = Fnv1a::new();
                hasher.update(&a.to_le_bytes());
                hasher.update(&b.to_le_bytes());
                symmetry ^= hasher.finish();
            }
            prev = Some(t);
        }
        if pos != span.len() {
            return Err(invariant(format!(
                "node {v} encoding occupies {pos} bytes but its offset span is {}",
                span.len()
            )));
        }
        total_arcs += degree as u64;
        max_degree = max_degree.max(degree);
        // Shard accounting (ranges validated contiguous above).
        shard_arcs += degree as u64;
        while shard_cursor < shards.len() && ix(shards[shard_cursor].end) == v + 1 {
            let claimed = shards[shard_cursor].arcs;
            let actual = shard_arcs;
            if claimed != actual {
                return Err(invariant(format!(
                    "shard {shard_cursor} claims {claimed} arcs but holds {actual}"
                )));
            }
            shard_cursor += 1;
            shard_arcs = 0;
        }
    }
    // Empty trailing shards (n == 0 case) are covered by the cover check.
    if n == 0 {
        for (i, s) in shards.iter().enumerate() {
            if s.arcs != 0 {
                return Err(invariant(format!("empty snapshot shard {i} claims arcs")));
            }
        }
    }
    if total_arcs != h.num_arcs as u64 {
        return Err(invariant(format!(
            "header claims {} arcs but data region holds {total_arcs}",
            h.num_arcs
        )));
    }
    let consistent = match h.direction {
        Direction::Directed => h.num_arcs == h.num_edges,
        Direction::Undirected => {
            h.num_edges.checked_mul(2).is_some_and(|double| double == h.num_arcs)
        }
    };
    if !consistent {
        return Err(invariant(format!(
            "{} arcs inconsistent with num_edges = {} ({:?})",
            h.num_arcs, h.num_edges, h.direction
        )));
    }
    if h.direction == Direction::Undirected && symmetry != 0 {
        return Err(invariant("undirected snapshot has asymmetric arcs".into()));
    }
    Ok(ValidatedBody { max_degree, shards })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{directed_from_edges, undirected_from_edges};

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.clear();
            write_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut pos = 0;
        assert!(read_varint(&[0x80], &mut pos).is_err());
        // 11 continuation bytes: wider than any u64.
        let wide = [0xff; 11];
        let mut pos = 0;
        assert!(read_varint(&wide, &mut pos).is_err());
    }

    #[test]
    fn encode_open_round_trip_matches_reads() {
        let g = undirected_from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap();
        let z = CompressedCsr::open_bytes(CompressedCsr::encode(&g, 2)).unwrap();
        assert_eq!(z.num_nodes(), g.num_nodes());
        assert_eq!(z.num_edges(), g.num_edges());
        assert_eq!(z.direction(), g.direction());
        assert_eq!(GraphView::max_degree(&z), g.max_degree());
        let mut scratch = Vec::new();
        for v in g.nodes() {
            assert_eq!(GraphView::degree(&z, v), g.degree(v));
            assert_eq!(z.neighbors_into(v, &mut scratch), g.neighbors(v));
            assert_eq!(z.neighbors(v), g.neighbors(v));
        }
        assert_eq!(z.to_graph(), g);
        assert_eq!(z.cached_nodes(), g.num_nodes());
        assert!(z.cached_bytes() > 0);
    }

    #[test]
    fn scratch_reads_decode_cold_lists_without_caching_them() {
        let g = undirected_from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]).unwrap();
        let z = CompressedCsr::open_bytes(CompressedCsr::encode(&g, 2)).unwrap();
        let mut scratch = Vec::new();
        for v in g.nodes() {
            assert_eq!(z.neighbors_into(v, &mut scratch), g.neighbors(v));
        }
        assert_eq!(z.cached_nodes(), 0, "cold scratch reads must not fill the cache");
        assert_eq!((z.cache_hits(), z.cache_misses()), (0, 5));
        // Once a list is cached, scratch reads borrow it instead.
        assert_eq!(z.neighbors(2), g.neighbors(2));
        assert_eq!(z.neighbors_into(2, &mut scratch), g.neighbors(2));
        assert_eq!((z.cached_nodes(), z.cache_hits(), z.cache_misses()), (1, 1, 6));
    }

    #[test]
    fn directed_and_empty_graphs_round_trip() {
        let d = directed_from_edges([(0, 1), (1, 2), (2, 0)]).unwrap();
        let z = CompressedCsr::open_bytes(CompressedCsr::encode(&d, 3)).unwrap();
        assert_eq!(z.to_graph(), d);
        let empty = crate::GraphBuilder::new(Direction::Undirected).build().unwrap();
        let z = CompressedCsr::open_bytes(CompressedCsr::encode(&empty, 4)).unwrap();
        assert_eq!(z.num_nodes(), 0);
        assert_eq!(z.to_graph(), empty);
    }

    #[test]
    fn checksum_catches_any_body_flip() {
        let g = undirected_from_edges([(0, 1), (1, 2)]).unwrap();
        let bytes = CompressedCsr::encode(&g, 1);
        for at in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(CompressedCsr::open_bytes(bad).is_err(), "flip at {at} accepted");
        }
    }

    #[test]
    fn restamped_structural_corruption_is_still_rejected() {
        let g = undirected_from_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
        let bytes = CompressedCsr::encode(&g, 1);
        // Swap two offset-table entries (non-monotone) and fix the checksum
        // so the structural validator, not the checksum, must catch it.
        let offsets_at = HEADER_LEN + SHARD_RECORD_LEN;
        let mut bad = bytes.clone();
        let (a, b) = (offsets_at + 8, offsets_at + 16);
        for i in 0..8 {
            bad.swap(a + i, b + i);
        }
        restamp_checksum(&mut bad).unwrap();
        let err = CompressedCsr::open_bytes(bad).unwrap_err();
        assert!(
            matches!(err, GraphError::Invariant(_) | GraphError::Decode(_)),
            "unexpected error {err:?}"
        );
    }
}
