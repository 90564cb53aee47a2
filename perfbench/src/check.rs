//! Output checks: every decoded shot is judged here, and every failed check
//! counts in the workload's `failed` total.

use mb_blossom::PerfectMatching;
use mb_graph::{DecodingGraph, VertexIndex, Weight};

/// Why a matching (or a windowed shot's committed pairs) is wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// A defect is matched zero times or more than once, or a matched
    /// vertex is not a defect.
    Unmatched,
    /// A defect is matched to a "boundary" vertex that is not virtual.
    NonVirtualBoundary,
    /// The correction does not reproduce the syndrome.
    InvalidCorrection,
    /// The matching is heavier than the reference decoder's.
    Heavier,
}

impl Fault {
    pub const ALL: [Fault; 4] = [
        Fault::Unmatched,
        Fault::NonVirtualBoundary,
        Fault::InvalidCorrection,
        Fault::Heavier,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Fault::Unmatched => "unmatched",
            Fault::NonVirtualBoundary => "non-virtual boundary",
            Fault::InvalidCorrection => "invalid correction",
            Fault::Heavier => "heavier than reference",
        }
    }
}

/// Checks one decoded matching against the shot's defects and the
/// reference (exact software MWPM) matching weight.
pub fn check_matching(
    graph: &DecodingGraph,
    defects: &[VertexIndex],
    matching: &PerfectMatching,
    reference_weight: Weight,
) -> Result<(), Fault> {
    if !matching.is_valid_for(defects) {
        return Err(Fault::Unmatched);
    }
    if matching.boundary.iter().any(|&(_, v)| !graph.is_virtual(v)) {
        return Err(Fault::NonVirtualBoundary);
    }
    if !matching.correction_matches_syndrome(graph, defects) {
        return Err(Fault::InvalidCorrection);
    }
    if matching.weight(graph) > reference_weight {
        return Err(Fault::Heavier);
    }
    Ok(())
}

/// Checks a windowed shot's committed pairs: every defect (`defects` sorted)
/// is covered exactly once, and every partner that is not a defect is a
/// virtual vertex.
pub fn check_committed(
    graph: &DecodingGraph,
    defects: &[VertexIndex],
    pairs: &[(VertexIndex, VertexIndex)],
) -> Result<(), Fault> {
    let mut covered = vec![0u32; defects.len()];
    let mut cover = |v: VertexIndex| match defects.binary_search(&v) {
        Ok(i) => {
            covered[i] += 1;
            true
        }
        Err(_) => false,
    };
    for &(a, b) in pairs {
        if !cover(a) {
            return Err(Fault::Unmatched);
        }
        if !cover(b) && !graph.is_virtual(b) {
            return Err(Fault::NonVirtualBoundary);
        }
    }
    if covered.iter().any(|&c| c != 1) {
        return Err(Fault::Unmatched);
    }
    Ok(())
}

/// Tally of failed checks per fault kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultTally {
    counts: [u64; 4],
}

impl FaultTally {
    pub fn add(&mut self, fault: Fault, times: u64) {
        self.counts[fault as usize] += times;
    }

    pub fn count(&self, fault: Fault) -> u64 {
        self.counts[fault as usize]
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `label n, label n, ...` for the report.
    pub fn describe(&self) -> String {
        Fault::ALL
            .iter()
            .map(|&f| format!("{} {}", f.label(), self.count(f)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Per distinct input: whether a delivery of it was judged, and whether any
/// delivery of it failed. The result line's `attempted` and `failed` count
/// distinct inputs, so they depend on the seed alone, not on how many times
/// a run of a given length happened to cycle through its inputs.
#[derive(Debug, Clone, Default)]
pub struct InputVerdicts {
    judged: Vec<bool>,
    failed: Vec<bool>,
}

impl InputVerdicts {
    pub fn new(inputs: usize) -> Self {
        Self {
            judged: vec![false; inputs],
            failed: vec![false; inputs],
        }
    }

    /// Records one delivery of `input`, correct or not.
    pub fn record(&mut self, input: usize, correct: bool) {
        self.judged[input] = true;
        self.failed[input] |= !correct;
    }

    /// Distinct inputs with at least one judged delivery.
    pub fn attempted(&self) -> u64 {
        self.judged.iter().filter(|&&j| j).count() as u64
    }

    /// Distinct inputs with at least one failed delivery.
    pub fn failed(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_decoder::{DecoderBackend, ParityBlossomDecoder};
    use mb_graph::circuit::CircuitLevelCode;
    use mb_graph::syndrome::SyndromePattern;
    use std::sync::Arc;

    fn graph() -> Arc<DecodingGraph> {
        Arc::new(CircuitLevelCode::rotated(3, 3, 0.001).decoding_graph())
    }

    /// Two adjacent regular vertices and the reference matching of that
    /// two-defect syndrome.
    fn two_defects(graph: &Arc<DecodingGraph>) -> (Vec<VertexIndex>, PerfectMatching, Weight) {
        let e = (0..graph.edge_count())
            .find(|&e| {
                let (u, v) = graph.edge(e).vertices;
                !graph.is_virtual(u) && !graph.is_virtual(v)
            })
            .expect("a regular edge exists");
        let (u, v) = graph.edge(e).vertices;
        let defects = SyndromePattern::new(vec![u, v]).defects;
        let outcome = ParityBlossomDecoder::new(Arc::clone(graph))
            .decode(&SyndromePattern::new(defects.clone()));
        let matching = outcome.matching.expect("parity blossom returns a matching");
        let weight = matching.weight(graph);
        (defects, matching, weight)
    }

    fn first_virtual(graph: &DecodingGraph) -> VertexIndex {
        (0..graph.vertex_count())
            .find(|&v| graph.is_virtual(v))
            .expect("a virtual vertex exists")
    }

    fn first_regular_except(graph: &DecodingGraph, skip: &[VertexIndex]) -> VertexIndex {
        (0..graph.vertex_count())
            .find(|&v| !graph.is_virtual(v) && !skip.contains(&v))
            .expect("a spare regular vertex exists")
    }

    #[test]
    fn reference_matching_passes() {
        let graph = graph();
        let (defects, matching, weight) = two_defects(&graph);
        assert_eq!(check_matching(&graph, &defects, &matching, weight), Ok(()));
    }

    #[test]
    fn unmatched_defect_fails() {
        let graph = graph();
        let (mut defects, matching, weight) = two_defects(&graph);
        defects.push(first_regular_except(&graph, &defects));
        defects.sort_unstable();
        assert_eq!(
            check_matching(&graph, &defects, &matching, weight),
            Err(Fault::Unmatched)
        );
        let pairs: Vec<_> = matching.pairs.clone();
        assert_eq!(
            check_committed(&graph, &defects, &pairs),
            Err(Fault::Unmatched)
        );
        // a defect covered twice is not covered exactly once either
        let (defects, _, _) = two_defects(&graph);
        let twice = [(defects[0], defects[1]), (defects[1], defects[0])];
        assert_eq!(
            check_committed(&graph, &defects, &twice),
            Err(Fault::Unmatched)
        );
    }

    #[test]
    fn non_virtual_boundary_partner_fails() {
        let graph = graph();
        let (defects, _, _) = two_defects(&graph);
        let fake = first_regular_except(&graph, &defects);
        let matching = PerfectMatching {
            pairs: Vec::new(),
            boundary: vec![(defects[0], fake), (defects[1], first_virtual(&graph))],
        };
        assert_eq!(
            check_matching(&graph, &defects, &matching, Weight::MAX),
            Err(Fault::NonVirtualBoundary)
        );
        let pairs = [(defects[0], fake), (defects[1], first_virtual(&graph))];
        assert_eq!(
            check_committed(&graph, &defects, &pairs),
            Err(Fault::NonVirtualBoundary)
        );
        let good = [(defects[0], defects[1])];
        assert_eq!(check_committed(&graph, &defects, &good), Ok(()));
    }

    #[test]
    fn heavier_than_reference_fails() {
        let graph = graph();
        let (defects, matching, weight) = two_defects(&graph);
        // a valid matching one unit heavier than the reference
        assert_eq!(
            check_matching(&graph, &defects, &matching, weight - 1),
            Err(Fault::Heavier)
        );
    }

    #[test]
    fn verdicts_count_distinct_inputs() {
        let mut verdicts = InputVerdicts::new(4);
        for _ in 0..3 {
            verdicts.record(0, true);
            verdicts.record(1, true);
            verdicts.record(2, false);
        }
        // one failed delivery among correct ones fails the input
        verdicts.record(1, false);
        assert_eq!(verdicts.attempted(), 3);
        assert_eq!(verdicts.failed(), 2);
    }

    #[test]
    fn tally_counts_per_fault() {
        let mut tally = FaultTally::default();
        tally.add(Fault::Heavier, 3);
        tally.add(Fault::Unmatched, 1);
        assert_eq!(tally.total(), 4);
        assert_eq!(tally.count(Fault::Heavier), 3);
        assert!(tally.describe().contains("heavier than reference 3"));
    }
}
