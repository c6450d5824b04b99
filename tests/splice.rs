//! Suffix-splice parity on the paper family, without and with χ: the
//! spliced evaluation of every candidate equals from-scratch
//! `list_schedule`, bounded runs classify exactly, and whole searches
//! walk one trajectory under every throughput knob, the splice switch
//! included. The oracle lives in `tests/engine_parity`.

pub mod engine_parity;

use engine_parity::{covering_array_agrees, paper_family, walk_all, Pass};

#[test]
fn spliced_equals_full_for_random_move_sequences() {
    walk_all(&paper_family(), Pass::Unbounded);
}

#[test]
fn spliced_bounded_classifies_exactly() {
    walk_all(&paper_family(), Pass::Bounded);
}

/// The covering array on the χ instance, whose searches apply
/// checkpoint-count moves.
#[test]
fn search_results_invariant_under_suffix_splice() {
    let [_, chi] = paper_family();
    covering_array_agrees(&[chi]);
}
