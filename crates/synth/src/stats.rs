//! Search statistics collected during synthesis (reported by the Table 3
//! ablation bench).

/// Counters describing one synthesis run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SynthStats {
    /// Guards yielded by the lazy enumerator (Figure 10).
    pub guards_yielded: usize,
    /// Section locators expanded with `ApplyProduction`.
    pub locators_expanded: usize,
    /// Section locators discarded by the UB check (Figure 10 line 8).
    pub locators_pruned: usize,
    /// Extractors dequeued and scored (Figure 9).
    pub extractors_enumerated: usize,
    /// Extractor extensions discarded by the UB check (Figure 9 line 9).
    pub extractors_pruned: usize,
    /// Calls to `SynthesizeBranch` (one per distinct partition block;
    /// with `SynthConfig::jobs > 1` this can include speculatively solved
    /// blocks the lazy sequential scan would have skipped).
    pub branch_calls: usize,
    /// Partition-block synthesis results served from the top-level
    /// `(E⁺, E⁻)` memo (Figure 7). Always 0 at `max_blocks ≤ 2`: there
    /// every block key occurs in exactly one ordered partition, so only a
    /// third block lets partitions share a key.
    pub memo_hits: usize,
    /// Extractor-synthesis results shared across guards over the same
    /// section locator (the footnote 6 memo inside one branch problem).
    pub locator_memo_hits: usize,
    /// Guard candidates skipped because the abstract interpreter proved
    /// they can never classify (predicate provably `⊥` on the positives,
    /// or guard provably `⊤` while negatives exist).
    pub analysis_pruned_guards: usize,
    /// Locator extensions skipped because they provably select no nodes
    /// on any positive example (the extension's node sets are empty, or a
    /// weaker filter already produced empty sets this round).
    pub analysis_pruned_locators: usize,
    /// Extractor extensions skipped because their outputs are provably
    /// empty (a production step the analysis proves maps everything to
    /// `∅`, or concrete all-empty outputs on a branch with gold tokens).
    pub analysis_pruned_extractors: usize,
}

impl SynthStats {
    /// Total number of candidate terms the search *touched* — the quantity
    /// pruning and decomposition reduce (Table 3's speedups follow it).
    pub fn work(&self) -> usize {
        self.guards_yielded + self.locators_expanded + self.extractors_enumerated
    }
}

impl std::ops::AddAssign for SynthStats {
    fn add_assign(&mut self, rhs: SynthStats) {
        self.guards_yielded += rhs.guards_yielded;
        self.locators_expanded += rhs.locators_expanded;
        self.locators_pruned += rhs.locators_pruned;
        self.extractors_enumerated += rhs.extractors_enumerated;
        self.extractors_pruned += rhs.extractors_pruned;
        self.branch_calls += rhs.branch_calls;
        self.memo_hits += rhs.memo_hits;
        self.locator_memo_hits += rhs.locator_memo_hits;
        self.analysis_pruned_guards += rhs.analysis_pruned_guards;
        self.analysis_pruned_locators += rhs.analysis_pruned_locators;
        self.analysis_pruned_extractors += rhs.analysis_pruned_extractors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_sums_search_counters() {
        let s = SynthStats {
            guards_yielded: 2,
            locators_expanded: 3,
            extractors_enumerated: 5,
            ..Default::default()
        };
        assert_eq!(s.work(), 10);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = SynthStats {
            guards_yielded: 1,
            ..Default::default()
        };
        a += SynthStats {
            guards_yielded: 2,
            memo_hits: 4,
            locator_memo_hits: 7,
            ..Default::default()
        };
        assert_eq!(a.guards_yielded, 3);
        assert_eq!(a.memo_hits, 4);
        assert_eq!(a.locator_memo_hits, 7);
    }
}
