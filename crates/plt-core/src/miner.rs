//! Unified miner interface, mining results, and the brute-force reference
//! miner used as ground truth in tests.

use crate::hash::FxHashMap;
use crate::item::{Item, Itemset, Support};

/// The outcome of a frequent-itemset mining run: every frequent itemset
/// with its (absolute) support.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningResult {
    supports: FxHashMap<Itemset, Support>,
    min_support: Support,
    num_transactions: u64,
}

impl MiningResult {
    /// Creates an empty result with run metadata.
    pub fn new(min_support: Support, num_transactions: u64) -> Self {
        MiningResult {
            supports: FxHashMap::default(),
            min_support,
            num_transactions,
        }
    }

    /// Records a frequent itemset. Re-recording the same itemset must use
    /// the same support (debug-asserted); miners never legitimately produce
    /// conflicting counts.
    pub fn insert(&mut self, itemset: Itemset, support: Support) {
        debug_assert!(!itemset.is_empty(), "the empty itemset is never reported");
        let prev = self.supports.insert(itemset, support);
        debug_assert!(
            prev.is_none() || prev == Some(support),
            "conflicting supports for an itemset"
        );
    }

    /// Support of `items`, if the itemset is frequent. A strictly
    /// increasing slice (already an itemset's canonical form) is looked
    /// up by borrow, without allocating; any other slice is sorted and
    /// deduplicated into an [`Itemset`] first.
    pub fn support(&self, items: &[Item]) -> Option<Support> {
        if items.windows(2).all(|w| w[0] < w[1]) {
            self.supports.get(items).copied()
        } else {
            self.supports.get(&Itemset::from(items)).copied()
        }
    }

    /// True if the itemset is in the frequent set.
    pub fn contains(&self, items: &[Item]) -> bool {
        self.support(items).is_some()
    }

    /// Number of frequent itemsets.
    pub fn len(&self) -> usize {
        self.supports.len()
    }

    /// True when nothing was frequent.
    pub fn is_empty(&self) -> bool {
        self.supports.is_empty()
    }

    /// The minimum support of the run.
    pub fn min_support(&self) -> Support {
        self.min_support
    }

    /// The number of transactions mined.
    pub fn num_transactions(&self) -> u64 {
        self.num_transactions
    }

    /// Iterates over `(itemset, support)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Itemset, Support)> {
        self.supports.iter().map(|(k, &v)| (k, v))
    }

    /// All frequent itemsets of exactly `k` items.
    pub fn of_size(&self, k: usize) -> impl Iterator<Item = (&Itemset, Support)> {
        self.iter().filter(move |(s, _)| s.len() == k)
    }

    /// Size of the largest frequent itemset.
    pub fn max_size(&self) -> usize {
        self.supports.keys().map(Itemset::len).max().unwrap_or(0)
    }

    /// Deterministically ordered view (by size, then lexicographically) for
    /// display and golden tests.
    pub fn sorted(&self) -> Vec<(Itemset, Support)> {
        let mut v: Vec<(Itemset, Support)> =
            self.supports.iter().map(|(k, &s)| (k.clone(), s)).collect();
        v.sort_by(|a, b| a.0.len().cmp(&b.0.len()).then_with(|| a.0.cmp(&b.0)));
        v
    }

    /// Verifies the anti-monotone property internally: every non-empty
    /// subset of a frequent itemset must be frequent with at least the same
    /// support. Used by tests and debug assertions; `O(Σ 2^k)`. Violations
    /// are reported as [`PltError::AntiMonotoneViolation`]
    /// (crate::error::PltError::AntiMonotoneViolation).
    pub fn check_anti_monotone(&self) -> crate::error::Result<()> {
        for (itemset, support) in self.iter() {
            for sub in itemset.subsets() {
                match self.support(sub.items()) {
                    None => {
                        return Err(crate::error::PltError::AntiMonotoneViolation {
                            subset: sub,
                            superset: itemset.clone(),
                            subset_support: None,
                            superset_support: support,
                        })
                    }
                    Some(s) if s < support => {
                        return Err(crate::error::PltError::AntiMonotoneViolation {
                            subset: sub,
                            superset: itemset.clone(),
                            subset_support: Some(s),
                            superset_support: support,
                        })
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

impl MiningResult {
    /// Merges another result into this one (used by the parallel miners,
    /// whose per-partition results are disjoint by construction). Shared
    /// itemsets must agree on support.
    pub fn merge(&mut self, other: MiningResult) {
        for (itemset, support) in other.supports {
            self.insert(itemset, support);
        }
    }
}

impl FromIterator<(Itemset, Support)> for MiningResult {
    fn from_iter<I: IntoIterator<Item = (Itemset, Support)>>(iter: I) -> Self {
        let mut r = MiningResult::new(0, 0);
        for (s, sup) in iter {
            r.insert(s, sup);
        }
        r
    }
}

/// A frequent-itemset miner over a horizontal transaction database.
///
/// The interface is deliberately concrete (`&[Vec<Item>]`) so miners are
/// object-safe and interchangeable inside the benchmark harness.
pub trait Miner {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Mines all itemsets with support `>= min_support` (absolute count).
    ///
    /// # Panics
    /// Implementations may panic on `min_support == 0`; every provided
    /// miner treats it as a programming error.
    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult;

    /// Like [`Miner::mine`], reporting spans and counters into `obs`.
    ///
    /// The default wraps the whole run in a single `mine/total` span;
    /// miners with internal phases override it to attribute time to
    /// `construct/*` and `mine/*` sub-spans and to flush engine counters.
    /// With `Obs::none()` this is exactly `mine` (the handle is inert),
    /// so implementations need no disabled-path special-casing.
    fn mine_with_obs(
        &self,
        transactions: &[Vec<Item>],
        min_support: Support,
        obs: &mut plt_obs::Obs,
    ) -> MiningResult {
        obs.time("mine/total", || self.mine(transactions, min_support))
    }
}

/// A frequent-itemset miner over an already-constructed [`Plt`]
/// (`crate::plt::Plt`).
///
/// This is the single PLT-level entry point: one obs-taking method, plus a
/// convenience wrapper for callers without an observability pipeline. It is
/// object-safe, so services and benchmarks dispatch engines through
/// `Box<dyn Mine>` instead of per-type match arms. All four PLT miners
/// implement it: `ConditionalMiner`, `TopDownMiner`, `HybridMiner`
/// (plt-core) and `ParallelPltMiner` (plt-parallel).
///
/// Note: types implementing both [`Miner`] and [`Mine`] have two `mine`
/// methods of different arity; when both traits are in scope on a concrete
/// receiver, disambiguate with `Mine::mine(&miner, &plt, &mut obs)`.
/// `Box<dyn Mine>` receivers never hit the ambiguity.
pub trait Mine {
    /// Mines every frequent itemset of `plt` (at the PLT's construction
    /// `min_support`), reporting spans and counters into `obs`. With
    /// `Obs::none()` the handle is inert and this costs nothing extra.
    fn mine(&self, plt: &crate::plt::Plt, obs: &mut plt_obs::Obs) -> MiningResult;

    /// Convenience wrapper: [`Mine::mine`] with observability disabled.
    fn mine_plt(&self, plt: &crate::plt::Plt) -> MiningResult {
        self.mine(plt, &mut plt_obs::Obs::none())
    }
}

/// Ground-truth miner: enumerates every subset of every transaction and
/// counts exactly. Exponential in transaction length — tests only.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceMiner;

impl Miner for BruteForceMiner {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn mine(&self, transactions: &[Vec<Item>], min_support: Support) -> MiningResult {
        assert!(min_support >= 1, "minimum support must be at least 1");
        let mut counts: FxHashMap<Itemset, Support> = FxHashMap::default();
        for t in transactions {
            let t = Itemset::from(t.as_slice());
            assert!(
                t.len() <= 20,
                "brute-force miner limited to transactions of <= 20 items"
            );
            for sub in t.subsets() {
                *counts.entry(sub).or_insert(0) += 1;
            }
        }
        let mut result = MiningResult::new(min_support, transactions.len() as u64);
        for (itemset, support) in counts {
            if support >= min_support {
                result.insert(itemset, support);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table1() -> Vec<Vec<Item>> {
        vec![
            vec![0, 1, 2],
            vec![0, 1, 2],
            vec![0, 1, 2, 3],
            vec![0, 1, 3, 4],
            vec![1, 2, 3],
            vec![2, 3, 5],
        ]
    }

    #[test]
    fn brute_force_on_paper_table1() {
        let r = BruteForceMiner.mine(&table1(), 2);
        // Hand-derived supports (DESIGN.md E-F4).
        assert_eq!(r.support(&[0]), Some(4));
        assert_eq!(r.support(&[1]), Some(5));
        assert_eq!(r.support(&[2]), Some(5));
        assert_eq!(r.support(&[3]), Some(4));
        assert_eq!(r.support(&[0, 1]), Some(4));
        assert_eq!(r.support(&[0, 2]), Some(3));
        assert_eq!(r.support(&[0, 3]), Some(2));
        assert_eq!(r.support(&[1, 2]), Some(4));
        assert_eq!(r.support(&[1, 3]), Some(3));
        assert_eq!(r.support(&[2, 3]), Some(3));
        assert_eq!(r.support(&[0, 1, 2]), Some(3));
        assert_eq!(r.support(&[0, 1, 3]), Some(2));
        assert_eq!(r.support(&[1, 2, 3]), Some(2));
        assert_eq!(r.support(&[0, 2, 3]), None); // support 1
        assert_eq!(r.support(&[0, 1, 2, 3]), None); // support 1
        assert_eq!(r.support(&[4]), None); // E, support 1
        assert_eq!(r.len(), 13);
        assert_eq!(r.max_size(), 3);
        r.check_anti_monotone().unwrap();
    }

    #[test]
    fn result_sorted_is_deterministic() {
        let r = BruteForceMiner.mine(&table1(), 2);
        let a = r.sorted();
        let b = r.sorted();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| {
            w[0].0.len() < w[1].0.len() || (w[0].0.len() == w[1].0.len() && w[0].0 < w[1].0)
        }));
    }

    #[test]
    fn of_size_filters() {
        let r = BruteForceMiner.mine(&table1(), 2);
        assert_eq!(r.of_size(1).count(), 4);
        assert_eq!(r.of_size(2).count(), 6);
        assert_eq!(r.of_size(3).count(), 3);
        assert_eq!(r.of_size(4).count(), 0);
    }

    #[test]
    fn min_support_one_counts_everything() {
        let r = BruteForceMiner.mine(&table1(), 1);
        assert_eq!(r.support(&[0, 1, 2, 3]), Some(1));
        assert_eq!(r.support(&[4]), Some(1));
        r.check_anti_monotone().unwrap();
    }

    #[test]
    fn high_min_support_yields_empty() {
        let r = BruteForceMiner.mine(&table1(), 7);
        assert!(r.is_empty());
        assert_eq!(r.max_size(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_min_support_panics() {
        BruteForceMiner.mine(&table1(), 0);
    }

    #[test]
    fn check_anti_monotone_detects_violations() {
        let mut r = MiningResult::new(1, 10);
        r.insert(Itemset::from([1, 2]), 5);
        // {1} and {2} missing → violation.
        assert!(r.check_anti_monotone().is_err());
        r.insert(Itemset::from([1]), 5);
        r.insert(Itemset::from([2]), 3); // support below superset → violation
        assert!(r.check_anti_monotone().is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let r: MiningResult = vec![(Itemset::from([1]), 3u64), (Itemset::from([2]), 2)]
            .into_iter()
            .collect();
        assert_eq!(r.len(), 2);
        assert_eq!(r.support(&[1]), Some(3));
    }
}
