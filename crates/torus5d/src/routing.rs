//! Deterministic dimension-ordered routing.
//!
//! Blue Gene/Q's software interfaces (at the time of the paper) enabled
//! deterministic dimension-order routing only; this is what guarantees PAMI's
//! pairwise message ordering. A route visits dimensions A→B→C→D→E, taking the
//! shorter wrap direction in each (ties resolve to the positive direction).

use crate::coords::{wrap_delta, Coord};
use crate::shape::TorusShape;

/// A directed physical link: from node `from`, along `dim`, in `dir`
/// (+1 or −1). Used as the contention-tracking key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Source node of the link.
    pub from: Coord,
    /// Dimension the link travels along (0=A … 4=E).
    pub dim: u8,
    /// Direction: `true` = increasing coordinate.
    pub plus: bool,
}

/// Compute the dimension-ordered route between two nodes as the sequence of
/// links traversed. An empty route means the nodes are identical. This is
/// the reference the on-the-fly [`crate::route_table::RouteWalk`] is
/// tested against.
pub fn route(shape: &TorusShape, src: Coord, dst: Coord) -> Vec<Link> {
    let mut links = Vec::new();
    let mut cur = src;
    for dim in 0..5u8 {
        let size = shape.dim(dim as usize);
        let delta = wrap_delta(cur.get(dim as usize), dst.get(dim as usize), size);
        let plus = delta >= 0;
        for _ in 0..delta.unsigned_abs() {
            links.push(Link {
                from: cur,
                dim,
                plus,
            });
            let c = cur.get(dim as usize);
            let next = if plus {
                (c + 1) % size
            } else {
                (c + size - 1) % size
            };
            cur = cur.with(dim as usize, next);
        }
    }
    debug_assert_eq!(cur, dst, "route must terminate at destination");
    links
}

/// Hop count of the dimension-ordered route (equals the torus distance,
/// since dimension-order routing is minimal).
pub fn hops(shape: &TorusShape, src: Coord, dst: Coord) -> u32 {
    shape.torus_distance(src, dst)
}

/// Walk a route from `src` to `dst` that avoids links for which `live`
/// returns `false`, detouring through the next available dimension when the
/// preferred link is dead. Returns `None` when no route was found within the
/// hop budget (destination unreachable, or cut off by the dead set).
///
/// The walker is greedy and deterministic: at every node it considers, in
/// order, (1) each dimension still needing correction (A→E), preferred wrap
/// direction first then the long way around, and (2) pure detour moves
/// through already-correct dimensions (plus then minus), and takes the first
/// live candidate — refusing to immediately re-traverse the link it just
/// arrived on unless that is the only live option. **With every link live
/// the first candidate always wins, so the result is exactly the
/// dimension-ordered [`route`]** — the property the live route cache
/// relies on to re-validate cached spans instead of duplicating them.
pub fn route_avoiding<F: Fn(Link) -> bool>(
    shape: &TorusShape,
    src: Coord,
    dst: Coord,
    live: F,
) -> Option<Vec<Link>> {
    let mut links = Vec::new();
    let mut cur = src;
    // A detouring walk can legitimately exceed the torus distance, but any
    // sensible route fits in a few ring circumferences; past that we are
    // ping-ponging inside a cut-off region.
    let circumference: usize = (0..5).map(|d| shape.dim(d) as usize).sum();
    let budget = 4 * circumference + 8;
    let mut prev: Option<Link> = None;
    while cur != dst {
        if links.len() >= budget {
            return None;
        }
        // The link that would undo the previous hop: same dimension,
        // opposite direction, starting where we stand now.
        let reverse = prev.map(|p| Link {
            from: cur,
            dim: p.dim,
            plus: !p.plus,
        });
        let mut chosen: Option<Link> = None;
        let mut fallback: Option<Link> = None; // the reverse link, last resort
        let consider = |cand: Link, chosen: &mut Option<Link>, fallback: &mut Option<Link>| {
            if chosen.is_some() || !live(cand) {
                return;
            }
            if Some(cand) == reverse {
                fallback.get_or_insert(cand);
            } else {
                *chosen = Some(cand);
            }
        };
        for dim in 0..5u8 {
            let size = shape.dim(dim as usize);
            let delta = wrap_delta(cur.get(dim as usize), dst.get(dim as usize), size);
            if delta == 0 {
                continue;
            }
            let preferred = delta >= 0;
            for plus in [preferred, !preferred] {
                consider(
                    Link {
                        from: cur,
                        dim,
                        plus,
                    },
                    &mut chosen,
                    &mut fallback,
                );
            }
        }
        if chosen.is_none() {
            // Every productive link is dead: detour through a dimension that
            // is already correct (it will need correcting back afterwards).
            for dim in 0..5u8 {
                let size = shape.dim(dim as usize);
                if size < 2 || wrap_delta(cur.get(dim as usize), dst.get(dim as usize), size) != 0 {
                    continue;
                }
                for plus in [true, false] {
                    consider(
                        Link {
                            from: cur,
                            dim,
                            plus,
                        },
                        &mut chosen,
                        &mut fallback,
                    );
                }
            }
        }
        let step = chosen.or(fallback)?;
        links.push(step);
        let size = shape.dim(step.dim as usize);
        let c = cur.get(step.dim as usize);
        let next = if step.plus {
            (c + 1) % size
        } else {
            (c + size - 1) % size
        };
        cur = cur.with(step.dim as usize, next);
        prev = Some(step);
    }
    Some(links)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_length_equals_distance() {
        let s = TorusShape::for_nodes(128);
        let a = s.node_coord(0);
        for i in 0..s.num_nodes() {
            let b = s.node_coord(i);
            assert_eq!(route(&s, a, b).len() as u32, s.torus_distance(a, b));
        }
    }

    #[test]
    fn route_visits_dimensions_in_order() {
        let s = TorusShape::new([4, 4, 4, 4, 2]);
        let r = route(&s, Coord([0, 0, 0, 0, 0]), Coord([2, 1, 0, 3, 1]));
        let dims: Vec<u8> = r.iter().map(|l| l.dim).collect();
        let mut sorted = dims.clone();
        sorted.sort_unstable();
        assert_eq!(dims, sorted, "dimension order violated: {dims:?}");
    }

    #[test]
    fn route_to_self_is_empty() {
        let s = TorusShape::for_nodes(32);
        let c = s.node_coord(7);
        assert!(route(&s, c, c).is_empty());
    }

    #[test]
    fn route_takes_shorter_wrap_direction() {
        let s = TorusShape::new([8, 1, 1, 1, 1]);
        // 0 -> 6 should go backwards (2 hops) not forwards (6 hops).
        let r = route(&s, Coord([0, 0, 0, 0, 0]), Coord([6, 0, 0, 0, 0]));
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|l| !l.plus));
        // Tie (0 -> 4 in size 8) resolves to positive.
        let r = route(&s, Coord([0, 0, 0, 0, 0]), Coord([4, 0, 0, 0, 0]));
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|l| l.plus));
    }

    #[test]
    fn route_is_deterministic() {
        let s = TorusShape::for_nodes(64);
        let a = s.node_coord(3);
        let b = s.node_coord(49);
        assert_eq!(route(&s, a, b), route(&s, a, b));
    }

    #[test]
    fn route_avoiding_with_all_live_equals_dimension_order() {
        let s = TorusShape::for_nodes(128);
        for (a, b) in [(0, 101), (3, 3), (7, 120), (64, 1)] {
            let src = s.node_coord(a);
            let dst = s.node_coord(b);
            assert_eq!(
                route_avoiding(&s, src, dst, |_| true).unwrap(),
                route(&s, src, dst),
                "{a}->{b}"
            );
        }
    }

    #[test]
    fn route_avoiding_detours_around_a_dead_link() {
        let s = TorusShape::for_nodes(128);
        let src = s.node_coord(0);
        let dst = s.node_coord(101);
        let normal = route(&s, src, dst);
        let dead = normal[0];
        let detour = route_avoiding(&s, src, dst, |l| l != dead).unwrap();
        assert!(!detour.contains(&dead), "detour reuses the dead link");
        // The detour is still a valid connected walk ending at dst.
        let mut cur = src;
        for link in &detour {
            assert_eq!(link.from, cur);
            let size = s.dim(link.dim as usize);
            let c = cur.get(link.dim as usize);
            cur = cur.with(
                link.dim as usize,
                if link.plus {
                    (c + 1) % size
                } else {
                    (c + size - 1) % size
                },
            );
        }
        assert_eq!(cur, dst);
    }

    #[test]
    fn route_avoiding_two_node_ring_uses_the_other_direction() {
        // Size-2 dimension: the plus and minus links between the two nodes
        // are physically distinct; killing one must fail over to the other.
        let s = TorusShape::new([2, 1, 1, 1, 1]);
        let a = Coord([0, 0, 0, 0, 0]);
        let b = Coord([1, 0, 0, 0, 0]);
        let preferred = route(&s, a, b)[0];
        let detour = route_avoiding(&s, a, b, |l| l != preferred).unwrap();
        assert_eq!(detour.len(), 1);
        assert_eq!(detour[0].dim, preferred.dim);
        assert_ne!(detour[0].plus, preferred.plus);
    }

    #[test]
    fn route_avoiding_reports_unreachable() {
        // Kill every link out of the source: nothing can leave.
        let s = TorusShape::for_nodes(32);
        let src = s.node_coord(0);
        let dst = s.node_coord(5);
        assert_eq!(route_avoiding(&s, src, dst, |l| l.from != src), None);
        // Self-route needs no links at all.
        assert_eq!(route_avoiding(&s, src, src, |_| false), Some(Vec::new()));
    }

    #[test]
    fn consecutive_links_are_connected() {
        let s = TorusShape::for_nodes(128);
        let a = s.node_coord(0);
        let b = s.node_coord(101);
        let r = route(&s, a, b);
        let mut cur = a;
        for link in &r {
            assert_eq!(link.from, cur);
            let size = s.dim(link.dim as usize);
            let c = cur.get(link.dim as usize);
            let next = if link.plus {
                (c + 1) % size
            } else {
                (c + size - 1) % size
            };
            cur = cur.with(link.dim as usize, next);
        }
        assert_eq!(cur, b);
    }
}
