//! Search configuration and statistics.

use std::time::Duration;

use crate::cache::EvalOutcome;

/// What the search optimizes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Goal {
    /// Stop as soon as a schedulable (all deadlines guaranteed)
    /// implementation is found — the paper's synthesis use case
    /// (Fig. 6 stops after any schedulable step).
    #[default]
    MeetDeadline,
    /// Keep minimizing the worst-case schedule length δ until the
    /// limits are exhausted — the paper's experimental setup ("we
    /// have derived the shortest schedule within an imposed time
    /// limit").
    MinimizeLength,
}

/// Tunable limits of the greedy and tabu searches.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// The optimization goal.
    pub goal: Goal,
    /// Wall-clock budget for the whole strategy (`None` = unlimited).
    pub time_limit: Option<Duration>,
    /// Upper bound on tabu-search iterations.
    pub max_tabu_iterations: usize,
    /// Tabu tenure (iterations a moved process stays tabu);
    /// `None` derives `max(2, √|Γ|)`.
    pub tabu_tenure: Option<usize>,
    /// Enable diversification by waiting time (paper Fig. 9 line 12).
    pub diversification: bool,
    /// Upper bound on the moves evaluated per tabu iteration. Large
    /// policy spaces (MXR on big graphs) produce neighbourhoods of
    /// several hundred candidates; evaluating all of them trades
    /// search depth for breadth under a wall-clock budget. When the
    /// neighbourhood exceeds the cap, a deterministic rotating window
    /// of it is evaluated instead (all moves still get their turn
    /// across iterations).
    pub max_moves_per_iteration: usize,
    /// Minimum number of processes to generate moves for: when the
    /// critical-path binding chain is shorter, it is padded with the
    /// processes of the largest worst-case completions so the
    /// neighbourhood never starves.
    pub min_move_candidates: usize,
    /// Stage the mixed-space (MXR) tabu search: spend the first half
    /// of the budget in the cheap re-execution-only subspace, then
    /// refine with the full mixed neighbourhood. Matches the paper's
    /// all-re-executed initialization and converges much faster on
    /// large instances; disable for ablation studies.
    pub staged_tabu: bool,
    /// Worker threads for candidate evaluation. `0` (the default)
    /// resolves at run time through
    /// [`crate::parallel::effective_threads`]: `FTDES_THREADS`, else
    /// the machine's available parallelism. Candidates are selected
    /// by a total order on `(cost, move index)`, so without a
    /// wall-clock limit the search result is **bit-identical** for
    /// every thread count; under a `time_limit` the cutoff lands at
    /// different trajectory points for different speeds (that is the
    /// point of going faster).
    pub threads: usize,
    /// Memoize candidate evaluations across iterations and phases
    /// (see [`crate::cache::Evaluator`]). Disable only to measure the
    /// uncached baseline; results are identical either way.
    pub eval_cache: bool,
    /// Evaluate window candidates incrementally: score each
    /// single-move candidate against the placement recorded while the
    /// base solution was materialized (patched expansion, incremental
    /// priorities and the suffix splice), instead of rebuilding it
    /// from scratch (see [`ftdes_sched::incremental`]). Pure
    /// throughput knob — costs are bit-identical either way; disable
    /// to measure the from-scratch evaluation path.
    pub incremental: bool,
    /// Bounded (early-exit) candidate evaluation: abort a candidate
    /// as soon as its accumulated worst-case completion provably
    /// exceeds the window incumbent, and resolve any selection-order
    /// ambiguity among pruned candidates by deterministic exact
    /// re-evaluation. Pure throughput knob — the selected moves (and
    /// the `(cost, move index)` total order behind them) are
    /// bit-identical either way.
    pub bounded: bool,
}

impl SearchConfig {
    /// Limits suited to the synthetic experiments: a few seconds per
    /// application.
    #[must_use]
    pub fn experiments() -> Self {
        SearchConfig {
            goal: Goal::MinimizeLength,
            time_limit: Some(Duration::from_millis(2_000)),
            ..SearchConfig::default()
        }
    }

    /// The tenure to use for `n` processes.
    #[must_use]
    pub fn tenure_for(&self, n: usize) -> usize {
        self.tabu_tenure
            .unwrap_or_else(|| ((n as f64).sqrt() as usize).max(2))
    }
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            goal: Goal::MeetDeadline,
            time_limit: Some(Duration::from_secs(10)),
            max_tabu_iterations: 1_000,
            tabu_tenure: None,
            diversification: true,
            max_moves_per_iteration: 120,
            min_move_candidates: 8,
            staged_tabu: true,
            threads: 0,
            eval_cache: true,
            incremental: true,
            bounded: true,
        }
    }
}

/// Counters reported by a finished search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Schedules actually computed (`ListScheduling` invocations —
    /// cache hits are counted separately).
    pub evaluations: usize,
    /// Candidate evaluations served from the memoization cache.
    pub cache_hits: usize,
    /// Bounded candidate evaluations aborted past the incumbent (the
    /// partial placement still ran, but far short of a full
    /// `ListScheduling` pass).
    pub pruned: usize,
    /// Accepted greedy improvement steps.
    pub greedy_steps: usize,
    /// Tabu-search iterations performed.
    pub tabu_iterations: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl SearchStats {
    /// Total candidate lookups: computed schedules plus cache hits.
    #[must_use]
    pub fn lookups(&self) -> usize {
        self.evaluations + self.cache_hits
    }

    /// Total candidates scored: exact lookups plus bounded-pruned
    /// candidates (a pruned candidate was examined just enough to
    /// prove it cannot win).
    #[must_use]
    pub fn candidates(&self) -> usize {
        self.evaluations + self.cache_hits + self.pruned
    }

    /// Counts one scored candidate: a pruned one, a cache hit, or a
    /// computed schedule.
    pub(crate) fn record(&mut self, outcome: EvalOutcome, cache_hit: bool) {
        if !outcome.is_exact() {
            self.pruned += 1;
        } else if cache_hit {
            self.cache_hits += 1;
        } else {
            self.evaluations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_deadline_goal() {
        let cfg = SearchConfig::default();
        assert_eq!(cfg.goal, Goal::MeetDeadline);
        assert!(cfg.diversification);
    }

    #[test]
    fn tenure_derivation() {
        let cfg = SearchConfig::default();
        assert_eq!(cfg.tenure_for(100), 10);
        assert_eq!(cfg.tenure_for(1), 2, "floor at 2");
        let fixed = SearchConfig {
            tabu_tenure: Some(7),
            ..SearchConfig::default()
        };
        assert_eq!(fixed.tenure_for(100), 7);
    }

    #[test]
    fn experiments_preset_minimizes_length() {
        assert_eq!(SearchConfig::experiments().goal, Goal::MinimizeLength);
    }
}
