//! The harness's own model of the server's sliding window.
//!
//! The model keeps every transaction the harness sent, in order, and the
//! stream length after each acknowledged batch. The window at any point
//! is the last `capacity` transactions of that prefix, so a reply that
//! names its generation can be checked by recounting over exactly the
//! window that generation was mined from.

use std::collections::HashMap;

use plt_core::Item;

#[derive(Debug, Clone)]
pub struct WindowModel {
    capacity: usize,
    min_support: u64,
    stream: Vec<Vec<Item>>,
    /// Stream length after the initial window (index 0) and after each
    /// acknowledged batch.
    ends: Vec<usize>,
}

impl WindowModel {
    pub fn new(initial: Vec<Vec<Item>>, capacity: usize, min_support: u64) -> WindowModel {
        let ends = vec![initial.len()];
        WindowModel {
            capacity,
            min_support,
            stream: initial,
            ends,
        }
    }

    /// Appends an acknowledged batch; returns how many batches are in.
    pub fn push_batch(&mut self, batch: &[Vec<Item>]) -> usize {
        self.stream.extend(batch.iter().cloned());
        self.ends.push(self.stream.len());
        self.ends.len() - 1
    }

    /// Batches acknowledged so far.
    pub fn batches(&self) -> usize {
        self.ends.len() - 1
    }

    /// The window after the first `batches` acknowledged batches.
    pub fn window(&self, batches: usize) -> &[Vec<Item>] {
        let end = self.ends[batches];
        &self.stream[end.saturating_sub(self.capacity)..end]
    }

    /// A recount index over the window after `batches` batches.
    pub fn index(&self, batches: usize) -> WindowIndex {
        WindowIndex::new(self.window(batches), self.min_support)
    }
}

/// Per-item transaction bitsets of one window: a support is the popcount
/// of the AND of its items' bitsets.
#[derive(Debug, Clone)]
pub struct WindowIndex {
    len: usize,
    min_support: u64,
    bits: HashMap<Item, Vec<u64>>,
}

impl WindowIndex {
    pub fn new(window: &[Vec<Item>], min_support: u64) -> WindowIndex {
        let words = window.len().div_ceil(64);
        let mut bits: HashMap<Item, Vec<u64>> = HashMap::new();
        for (tid, t) in window.iter().enumerate() {
            for &item in t {
                bits.entry(item).or_insert_with(|| vec![0; words])[tid / 64] |= 1 << (tid % 64);
            }
        }
        WindowIndex {
            len: window.len(),
            min_support,
            bits,
        }
    }

    /// Transactions of the window containing every item of `items`.
    pub fn count(&self, items: &[Item]) -> u64 {
        let Some((first, rest)) = items.split_first() else {
            return self.len as u64;
        };
        let Some(acc) = self.bits.get(first) else {
            return 0;
        };
        let mut acc = acc.clone();
        for item in rest {
            let Some(b) = self.bits.get(item) else {
                return 0;
            };
            acc.iter_mut().zip(b).for_each(|(a, b)| *a &= b);
        }
        acc.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The support the server reports: the exact count, except that an
    /// itemset naming an item below the threshold answers 0 (such items
    /// are unranked in the window's tree).
    pub fn served_support(&self, items: &[Item]) -> u64 {
        if items.iter().any(|&i| self.count(&[i]) < self.min_support) {
            return 0;
        }
        self.count(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(window: &[Vec<Item>], items: &[Item]) -> u64 {
        window
            .iter()
            .filter(|t| items.iter().all(|i| t.contains(i)))
            .count() as u64
    }

    #[test]
    fn recount_matches_a_brute_force_scan() {
        let window: Vec<Vec<Item>> = (0..200u32)
            .map(|t| {
                (0..12u32)
                    .filter(|i| (t * 7 + i * 13) % (i + 2) == 0)
                    .collect()
            })
            .collect();
        let idx = WindowIndex::new(&window, 1);
        for a in 0..12 {
            assert_eq!(idx.count(&[a]), brute(&window, &[a]));
            for b in a + 1..12 {
                assert_eq!(idx.count(&[a, b]), brute(&window, &[a, b]));
                assert_eq!(idx.count(&[a, b, 11]), brute(&window, &[a, b, 11]));
            }
        }
        assert_eq!(idx.count(&[99]), 0);
        assert_eq!(idx.count(&[]), 200);
    }

    #[test]
    fn served_support_zeroes_itemsets_with_an_infrequent_item() {
        let window = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
        let idx = WindowIndex::new(&window, 2);
        assert_eq!(idx.served_support(&[1, 2]), 2);
        assert_eq!(idx.count(&[1, 3]), 1);
        assert_eq!(idx.served_support(&[1, 3]), 0);
    }

    #[test]
    fn window_slides_over_acknowledged_batches() {
        let mut m = WindowModel::new(vec![vec![1], vec![2], vec![3]], 3, 1);
        assert_eq!(m.window(0), &[vec![1], vec![2], vec![3]]);
        m.push_batch(&[vec![4], vec![5]]);
        assert_eq!(m.push_batch(&[vec![6]]), 2);
        assert_eq!(m.batches(), 2);
        // Earlier generations stay recountable after later batches.
        assert_eq!(m.window(1), &[vec![3], vec![4], vec![5]]);
        assert_eq!(m.window(2), &[vec![4], vec![5], vec![6]]);
        assert_eq!(m.index(2).count(&[3]), 0);
        assert_eq!(m.index(1).count(&[3]), 1);
    }
}
