//! Connected-component labelling.
//!
//! Classic two-pass algorithm with union–find over 4-connectivity,
//! producing the bounding box and pixel count of every foreground blob.
//! This is the step that turns a GMM foreground mask into RoI candidates.

use crate::mask::BitMask;
use tangram_types::geometry::Rect;

/// One connected foreground component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Component {
    /// Tight bounding box of the component (mask coordinates).
    pub rect: Rect,
    /// Number of foreground pixels in the component.
    pub pixels: u32,
}

struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        Self { parent: Vec::new() }
    }

    fn make(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // Path halving.
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Attach the larger id under the smaller, keeping labels stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Finds all 4-connected components with at least `min_pixels` pixels,
/// ordered by (y, x) of their first-scanned pixel.
#[must_use]
pub fn connected_components(mask: &BitMask, min_pixels: u32) -> Vec<Component> {
    let (w, h) = (mask.width(), mask.height());
    let mut labels: Vec<u32> = vec![u32::MAX; w as usize * h as usize];
    let mut uf = UnionFind::new();
    let at = |x: u32, y: u32| -> usize { y as usize * w as usize + x as usize };

    // First pass: provisional labels + equivalences.
    for y in 0..h {
        for x in mask.set_in_row(y) {
            // A scanned neighbour is foreground exactly when it is labelled.
            let left = (x > 0).then(|| labels[at(x - 1, y)]);
            let up = (y > 0).then(|| labels[at(x, y - 1)]);
            let [left, up] = [left, up].map(|l| l.filter(|&l| l != u32::MAX));
            let label = match (left, up) {
                (Some(l), Some(u)) => {
                    uf.union(l, u);
                    l.min(u)
                }
                (Some(l), None) => l,
                (None, Some(u)) => u,
                (None, None) => uf.make(),
            };
            labels[at(x, y)] = label;
        }
    }

    // Second pass: accumulate per-root extents.
    #[derive(Clone, Copy)]
    struct Acc {
        min_x: u32,
        min_y: u32,
        max_x: u32,
        max_y: u32,
        pixels: u32,
        order: u32,
    }
    let mut accs: Vec<Option<Acc>> = vec![None; uf.parent.len()];
    let mut order = 0u32;
    for y in 0..h {
        for x in 0..w {
            let l = labels[at(x, y)];
            if l == u32::MAX {
                continue;
            }
            let root = uf.find(l) as usize;
            let acc = accs[root].get_or_insert_with(|| {
                let o = order;
                order += 1;
                Acc {
                    min_x: x,
                    min_y: y,
                    max_x: x,
                    max_y: y,
                    pixels: 0,
                    order: o,
                }
            });
            acc.min_x = acc.min_x.min(x);
            acc.min_y = acc.min_y.min(y);
            acc.max_x = acc.max_x.max(x);
            acc.max_y = acc.max_y.max(y);
            acc.pixels += 1;
        }
    }

    let mut comps: Vec<(u32, Component)> = accs
        .into_iter()
        .flatten()
        .filter(|a| a.pixels >= min_pixels)
        .map(|a| {
            (
                a.order,
                Component {
                    rect: Rect::new(
                        a.min_x,
                        a.min_y,
                        a.max_x - a.min_x + 1,
                        a.max_y - a.min_y + 1,
                    ),
                    pixels: a.pixels,
                },
            )
        })
        .collect();
    comps.sort_by_key(|(o, _)| *o);
    comps.into_iter().map(|(_, c)| c).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_from_art(art: &[&str]) -> BitMask {
        let h = art.len() as u32;
        let w = art[0].len() as u32;
        let mut m = BitMask::new(w, h);
        for (y, row) in art.iter().enumerate() {
            for (x, ch) in row.chars().enumerate() {
                if ch == '#' {
                    m.set(x as u32, y as u32, true);
                }
            }
        }
        m
    }

    #[test]
    fn single_block() {
        let m = mask_from_art(&["..........", "..###.....", "..###.....", ".........."]);
        let comps = connected_components(&m, 1);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].rect, Rect::new(2, 1, 3, 2));
        assert_eq!(comps[0].pixels, 6);
    }

    #[test]
    fn two_separate_blobs() {
        let m = mask_from_art(&["##.....", "##.....", ".....##", ".....##"]);
        let comps = connected_components(&m, 1);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].rect, Rect::new(0, 0, 2, 2));
        assert_eq!(comps[1].rect, Rect::new(5, 2, 2, 2));
    }

    #[test]
    fn diagonal_pixels_are_separate_under_4_connectivity() {
        let m = mask_from_art(&["#.", ".#"]);
        assert_eq!(connected_components(&m, 1).len(), 2);
    }

    #[test]
    fn u_shape_merges_via_equivalence() {
        // The two arms of the U get different provisional labels that must
        // merge through the bottom row.
        let m = mask_from_art(&["#.#", "#.#", "###"]);
        let comps = connected_components(&m, 1);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].rect, Rect::new(0, 0, 3, 3));
        assert_eq!(comps[0].pixels, 7);
    }

    #[test]
    fn min_pixels_filters_specks() {
        let m = mask_from_art(&["#....", ".....", "..###", "..###"]);
        let comps = connected_components(&m, 3);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].pixels, 6);
    }

    #[test]
    fn empty_mask_no_components() {
        let m = BitMask::new(8, 8);
        assert!(connected_components(&m, 1).is_empty());
    }

    #[test]
    fn full_mask_single_component() {
        let mut m = BitMask::new(6, 4);
        for y in 0..4 {
            for x in 0..6 {
                m.set(x, y, true);
            }
        }
        let comps = connected_components(&m, 1);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].rect, Rect::new(0, 0, 6, 4));
        assert_eq!(comps[0].pixels, 24);
    }
}
