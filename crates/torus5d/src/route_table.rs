//! Interned links and dimension-ordered routes walked on the fly.
//!
//! Deterministic dimension-ordered routing makes a route a pure function of
//! its `(source node, destination node)` pair — the exact property the
//! paper's PAMI relies on for pairwise ordering (§III-A4). [`RouteTable`]
//! exploits it on the simulator's hot path:
//!
//! * **[`LinkId`]** — a directed physical link interned as
//!   `node_index * 10 + dim * 2 + plus`: O(1) to compute, no hashing, and
//!   dense, so per-link state can live in flat `Vec`s indexed by it.
//!   Ascending `LinkId` order equals the lexicographic [`Link`] order
//!   (node indices are the lexicographic linearization of coordinates), so
//!   sorted views come for free.
//! * **[`RouteWalk`]** — the fault-free route is recomputed per message by
//!   stride arithmetic: a `Copy` iterator that steps A→E exactly like
//!   [`crate::routing::route`] and moves the current node index by
//!   ±stride per hop. No hashing, no allocation, no per-pair memory.
//! * **Live route cache** — only an installed fault plan needs memory:
//!   detours around lost links come from [`route_avoiding`], so
//!   [`RouteTable::route_span_live`] caches them per node pair (in a
//!   compact [`FxMap64`] plus a shared `LinkId` arena) and re-validates a
//!   span lazily whenever the liveness epoch moves.
//! * **On-demand rank mapping** — rank → (coordinate, node index) is pure
//!   mapping arithmetic, computed per call, so every per-rank structure
//!   costs O(touched) at the million-rank partitions `fig_scale` targets.

use crate::coords::{wrap_delta, Coord};
use crate::fxmap::FxMap64;
use crate::routing::{route_avoiding, Link};
use crate::shape::TorusShape;
use crate::{Mapping, Topology};
use desim::memprof::{self, MemTag};

/// Span map and link arena of the live (fault-plan) route cache.
static ROUTES_TAG: MemTag = MemTag::new("torus5d.routes");

/// Links per node: 5 dimensions × 2 directions.
const LINKS_PER_NODE: u32 = 10;

/// Interned directed-link id: `node_index * 10 + dim * 2 + plus`.
///
/// The interning is a bijection between ids `0..nodes*10` and [`Link`]s of
/// the torus; decode with [`RouteTable::link_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Sentinel offset marking a node pair the degraded walker could not
/// connect at its epoch (destination cut off by dead links).
const NO_ROUTE: u32 = u32::MAX;

/// One live-cache span: arena offset, hop count and the liveness epoch it
/// was last validated at.
#[derive(Debug, Clone, Copy, Default)]
struct SpanSlot {
    off: u32,
    len: u16,
    epoch: u32,
}

/// Pack a `(src node, dst node)` pair into one span-map key.
#[inline]
fn span_key(src_node: u32, dst_node: u32) -> u64 {
    (u64::from(src_node) << 32) | u64::from(dst_node)
}

/// The fault-free dimension-ordered route between two nodes, stepped on the
/// fly ([`RouteTable::walk`]). Yields exactly the links
/// [`crate::routing::route`] returns, in the same order: dimensions
/// A→E, the shorter wrap direction in each, ties going `+`.
#[derive(Debug, Clone, Copy)]
pub struct RouteWalk {
    /// Node index the next link leaves from.
    node: u32,
    /// Dimension being corrected; 5 once the walk is done.
    dim: usize,
    /// Hops still to take along each dimension, and their direction.
    left: [u16; 5],
    plus: [bool; 5],
    /// Current coordinate along each dimension (locates the wrap hop).
    pos: [u16; 5],
    dims: [u16; 5],
    strides: [u32; 5],
}

impl Iterator for RouteWalk {
    type Item = LinkId;

    #[inline]
    fn next(&mut self) -> Option<LinkId> {
        while *self.left.get(self.dim)? == 0 {
            self.dim += 1;
        }
        let d = self.dim;
        let plus = self.plus[d];
        let id = LinkId(self.node * LINKS_PER_NODE + d as u32 * 2 + u32::from(plus));
        self.left[d] -= 1;
        let (pos, last) = (self.pos[d], self.dims[d] - 1);
        let next = match (plus, pos) {
            (true, p) if p == last => 0,
            (true, p) => p + 1,
            (false, 0) => last,
            (false, p) => p - 1,
        };
        self.pos[d] = next;
        self.node =
            self.node - u32::from(pos) * self.strides[d] + u32::from(next) * self.strides[d];
        Some(id)
    }
}

/// Per-partition routing acceleration: link interning, the route walk and
/// the lazily filled live route cache. See the module docs.
pub struct RouteTable {
    shape: TorusShape,
    nodes: u32,
    /// Rank→coordinate mapping, evaluated on demand per lookup.
    mapping: Mapping,
    procs_per_node: usize,
    /// Total process slots of the partition (`nodes * procs_per_node`).
    capacity: usize,
    /// Packed (src node, dst node) → live span. Only pairs that exchanged
    /// traffic under a fault plan occupy a slot.
    spans: FxMap64<SpanSlot>,
    /// Shared arena of live-cache routes, stored back-to-back.
    arena: Vec<LinkId>,
    /// Number of live-cache spans appended so far.
    routes_cached: u64,
}

impl RouteTable {
    /// Build the table for a topology. Construction is O(1) in the partition
    /// size: rank coordinates and fault-free routes are computed on demand,
    /// and the live cache fills in lazily under a fault plan.
    pub fn new(topo: &Topology) -> RouteTable {
        let shape = topo.shape;
        RouteTable {
            shape,
            nodes: shape.num_nodes() as u32,
            mapping: topo.mapping.clone(),
            procs_per_node: topo.procs_per_node,
            capacity: topo.capacity(),
            spans: FxMap64::new(),
            arena: Vec::new(),
            routes_cached: 0,
        }
    }

    /// The torus shape this table spans.
    pub fn shape(&self) -> &TorusShape {
        &self.shape
    }

    /// Total process slots of the partition.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of nodes in the torus.
    pub fn num_nodes(&self) -> usize {
        self.nodes as usize
    }

    /// Exclusive upper bound of the dense [`LinkId`] space (`nodes * 10`).
    pub fn num_link_ids(&self) -> usize {
        (self.nodes * LINKS_PER_NODE) as usize
    }

    /// Torus coordinate of the node hosting `rank` (mapping arithmetic).
    #[inline]
    pub fn coord_of(&self, rank: usize) -> Coord {
        self.mapping
            .rank_to_coord(rank, &self.shape, self.procs_per_node)
            .0
    }

    /// Node index of the node hosting `rank` (mapping arithmetic).
    #[inline]
    pub fn node_of(&self, rank: usize) -> u32 {
        self.locate(rank).1
    }

    /// Coordinate and node index of the node hosting `rank`, from one
    /// mapping evaluation.
    #[inline]
    pub(crate) fn locate(&self, rank: usize) -> (Coord, u32) {
        let c = self.coord_of(rank);
        (c, self.shape.node_index(c) as u32)
    }

    /// True when both ranks live on the same node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Hop count between the nodes hosting the two ranks (0 if co-located).
    /// Coordinate mapping + wrap arithmetic; no route computation.
    #[inline]
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        self.shape
            .torus_distance(self.coord_of(a), self.coord_of(b))
    }

    /// Intern a [`Link`] (O(1): one node-index linearization, no hashing).
    #[inline]
    pub fn link_id(&self, link: Link) -> LinkId {
        let node = self.shape.node_index(link.from) as u32;
        LinkId(node * LINKS_PER_NODE + u32::from(link.dim) * 2 + u32::from(link.plus))
    }

    /// Decode a [`LinkId`] back into the full [`Link`] identity.
    #[inline]
    pub fn link_of(&self, id: LinkId) -> Link {
        let rem = id.0 % LINKS_PER_NODE;
        Link {
            from: self.shape.node_coord((id.0 / LINKS_PER_NODE) as usize),
            dim: (rem / 2) as u8,
            plus: rem % 2 == 1,
        }
    }

    /// The fault-free route between two *node indices*, walked on the fly.
    pub fn walk(&self, src_node: u32, dst_node: u32) -> RouteWalk {
        let src = self.shape.node_coord(src_node as usize);
        self.walk_from(src, src_node, self.shape.node_coord(dst_node as usize))
    }

    /// [`RouteTable::walk`] from an already-resolved source (coordinate and
    /// node index) to the destination coordinate.
    #[inline]
    pub(crate) fn walk_from(&self, src: Coord, src_node: u32, dst: Coord) -> RouteWalk {
        let dims = self.shape.dims();
        let mut walk = RouteWalk {
            node: src_node,
            dim: 0,
            left: [0; 5],
            plus: [true; 5],
            pos: src.0,
            dims,
            strides: [1; 5],
        };
        for d in (0..4).rev() {
            walk.strides[d] = walk.strides[d + 1] * u32::from(dims[d + 1]);
        }
        for (d, &size) in dims.iter().enumerate() {
            let delta = wrap_delta(src.get(d), dst.get(d), size);
            walk.left[d] = delta.unsigned_abs() as u16;
            walk.plus[d] = delta >= 0;
        }
        walk
    }

    /// The route between two node indices **at liveness epoch `epoch`**,
    /// given the per-link predicate `live`, as an `(arena offset, hop
    /// count)` span (index it with [`RouteTable::link_at`]). A span cached
    /// at an older epoch is recomputed with [`route_avoiding`]; if the fresh
    /// walk matches the cached links the span is merely re-stamped (no
    /// arena growth — the common case once routes settle after a failure),
    /// otherwise the detour is appended as a new span. Returns `None` when
    /// the pair is unreachable at this epoch. With every link live the span
    /// holds exactly the [`RouteTable::walk`] links.
    #[inline]
    pub fn route_span_live<F: Fn(LinkId) -> bool>(
        &mut self,
        src_node: u32,
        dst_node: u32,
        epoch: u32,
        live: F,
    ) -> Option<(u32, u16)> {
        let key = span_key(src_node, dst_node);
        match self.spans.get(key) {
            Some(slot) if slot.epoch == epoch => {
                (slot.off != NO_ROUTE).then_some((slot.off, slot.len))
            }
            old => self.fill_route_live(key, old, src_node, dst_node, epoch, live),
        }
    }

    /// One link of the live-cache arena (index comes from
    /// [`RouteTable::route_span_live`]).
    #[inline]
    pub fn link_at(&self, arena_idx: u32) -> LinkId {
        self.arena[arena_idx as usize]
    }

    /// Number of live-cache spans appended so far (0 without a fault plan).
    pub fn routes_cached(&self) -> u64 {
        self.routes_cached
    }

    /// Total links stored in the live-cache arena (0 without a fault plan).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    #[cold]
    fn fill_route_live<F: Fn(LinkId) -> bool>(
        &mut self,
        key: u64,
        old: Option<SpanSlot>,
        src_node: u32,
        dst_node: u32,
        epoch: u32,
        live: F,
    ) -> Option<(u32, u16)> {
        let _mem = memprof::scope(&ROUTES_TAG);
        let shape = self.shape;
        let src = shape.node_coord(src_node as usize);
        let dst = shape.node_coord(dst_node as usize);
        let fresh = route_avoiding(&shape, src, dst, |l| live(self.link_id(l)));
        let Some(links) = fresh else {
            let unroutable = SpanSlot {
                off: NO_ROUTE,
                len: 0,
                epoch,
            };
            self.spans.insert(key, unroutable);
            return None;
        };
        if let Some(old) = old.filter(|o| o.off != NO_ROUTE) {
            // Re-validate: if the degraded walk reproduces the cached links
            // exactly, keep the old span (the cache stays *exact* without
            // duplicating arena storage on every epoch bump).
            let (off, len) = (old.off as usize, old.len as usize);
            if len == links.len()
                && self.arena[off..off + len]
                    .iter()
                    .zip(&links)
                    .all(|(id, l)| *id == self.link_id(*l))
            {
                self.spans.insert(key, SpanSlot { epoch, ..old });
                return Some((old.off, old.len));
            }
        }
        let off = self.arena.len() as u32;
        for l in &links {
            let id = self.link_id(*l);
            self.arena.push(id);
        }
        let span = SpanSlot {
            off,
            len: links.len() as u16,
            epoch,
        };
        self.spans.insert(key, span);
        self.routes_cached += 1;
        Some((span.off, span.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::route;
    use crate::Mapping;

    fn table(nodes: usize, ppn: usize) -> (Topology, RouteTable) {
        let topo = Topology {
            shape: TorusShape::for_nodes(nodes),
            procs_per_node: ppn,
            mapping: Mapping::abcdet(),
        };
        let rt = RouteTable::new(&topo);
        (topo, rt)
    }

    #[test]
    fn rank_table_matches_topology() {
        let (topo, rt) = table(64, 16);
        assert_eq!(rt.capacity(), topo.capacity());
        for r in 0..topo.capacity() {
            assert_eq!(rt.coord_of(r), topo.coord_of(r), "rank {r}");
            assert_eq!(
                rt.node_of(r) as usize,
                topo.shape.node_index(topo.coord_of(r))
            );
        }
        for (a, b) in [(0, 0), (0, 15), (0, 16), (3, 999), (1000, 17)] {
            assert_eq!(rt.same_node(a, b), topo.same_node(a, b));
            assert_eq!(rt.hops(a, b), topo.hops(a, b));
        }
    }

    #[test]
    fn link_id_is_a_bijection() {
        let (_, rt) = table(128, 1);
        for id in 0..rt.num_link_ids() as u32 {
            let link = rt.link_of(LinkId(id));
            assert_eq!(rt.link_id(link), LinkId(id));
            assert!(link.dim < 5);
        }
    }

    #[test]
    fn link_id_order_matches_link_order() {
        // Dense id order must equal the lexicographic Link order the old
        // HashMap-based utilization view sorted by.
        let (_, rt) = table(32, 1);
        let links: Vec<Link> = (0..rt.num_link_ids() as u32)
            .map(|i| rt.link_of(LinkId(i)))
            .collect();
        let mut sorted = links.clone();
        sorted.sort_unstable();
        assert_eq!(links, sorted);
    }

    #[test]
    fn walked_routes_match_fresh_routes() {
        let (topo, rt) = table(64, 1);
        let shape = topo.shape;
        for a in 0..shape.num_nodes() as u32 {
            for b in 0..shape.num_nodes() as u32 {
                let walked: Vec<Link> = rt.walk(a, b).map(|id| rt.link_of(id)).collect();
                let fresh = route(
                    &shape,
                    shape.node_coord(a as usize),
                    shape.node_coord(b as usize),
                );
                assert_eq!(walked, fresh, "route {a}->{b}");
            }
        }
        assert_eq!(rt.routes_cached(), 0, "walking caches nothing");
    }

    #[test]
    fn live_span_revalidates_without_arena_growth() {
        let (_, mut rt) = table(64, 1);
        let all_live = |_: LinkId| true;
        let span0 = rt.route_span_live(0, 9, 0, all_live).unwrap();
        let (off, len) = span0;
        let links: Vec<LinkId> = (off..off + u32::from(len)).map(|i| rt.link_at(i)).collect();
        assert_eq!(
            links,
            rt.walk(0, 9).collect::<Vec<_>>(),
            "all-live walk is the exact route"
        );
        let arena = rt.arena_len();
        let cached = rt.routes_cached();
        // Epoch bump with nothing dead: same links -> re-stamp, no growth.
        let span1 = rt.route_span_live(0, 9, 1, all_live).unwrap();
        assert_eq!(span1, span0);
        assert_eq!(rt.arena_len(), arena);
        assert_eq!(rt.routes_cached(), cached);
        // Same epoch again: pure cache hit.
        assert_eq!(rt.route_span_live(0, 9, 1, all_live), Some(span0));
    }

    #[test]
    fn live_span_detours_and_caches_the_detour() {
        let (_, mut rt) = table(64, 1);
        let (off, len) = rt.route_span_live(0, 9, 0, |_| true).unwrap();
        assert!(len > 0);
        let dead = rt.link_at(off);
        let (off2, len2) = rt.route_span_live(0, 9, 1, |l| l != dead).unwrap();
        let detour: Vec<LinkId> = (off2..off2 + u32::from(len2))
            .map(|i| rt.link_at(i))
            .collect();
        assert!(!detour.contains(&dead), "detour must avoid the dead link");
        // The detour is itself cached: same epoch, no recompute drift.
        assert_eq!(
            rt.route_span_live(0, 9, 1, |l| l != dead),
            Some((off2, len2))
        );
        // Recovery epoch: walker returns to the original exact route, which
        // re-validates against the *original* span (but a new span entry is
        // appended only if links differ from the detour currently stored).
        let (off3, len3) = rt.route_span_live(0, 9, 2, |_| true).unwrap();
        let back: Vec<LinkId> = (off3..off3 + u32::from(len3))
            .map(|i| rt.link_at(i))
            .collect();
        assert!(back.contains(&dead));
        assert_eq!(back.len(), len as usize);
    }

    #[test]
    fn live_span_reports_unreachable_and_recovers() {
        let (_, mut rt) = table(32, 1);
        let src_node = 0u32;
        // Kill every link leaving node 0: unreachable.
        assert_eq!(
            rt.route_span_live(src_node, 3, 5, |l| l.0 / 10 != src_node),
            None
        );
        // The NO_ROUTE verdict is cached at that epoch.
        assert_eq!(
            rt.route_span_live(src_node, 3, 5, |l| l.0 / 10 != src_node),
            None
        );
        // Next epoch with links back: route again.
        assert!(rt.route_span_live(src_node, 3, 6, |_| true).is_some());
    }
}
