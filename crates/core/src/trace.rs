//! Query observability: structured pruning traces and cost profiles.
//!
//! The paper's entire evaluation is denominated in distance computations,
//! but a single [`Counted`](crate::Counted) total cannot say *where* an
//! index saved work — whether a candidate was excluded by the first or
//! second vantage point, by a pre-computed leaf distance, or by a path
//! filter. This module records that attribution per query:
//!
//! * [`TraceSink`] — the instrumentation interface search algorithms
//!   report into. Every search routine takes a `&mut impl TraceSink`;
//!   untraced callers pass [`NoTrace`], a zero-sized sink whose methods
//!   are empty `#[inline]` bodies, so the traced and untraced code paths
//!   monomorphize to identical machine code and the hot path pays nothing.
//!   Callers that only need a query's cost pass a
//!   [`DistanceTally`](crate::DistanceTally), which counts distances and
//!   skips the rest.
//! * [`QueryProfile`] — a sink that aggregates one query: nodes visited vs
//!   subtrees pruned (with the triangle-inequality bound that justified
//!   each prune), distance computations split by [`DistanceRole`], leaf
//!   candidates rejected per filter stage, and per-level fanout.
//! * [`EventLog`] — a sink that retains every individual prune/reject
//!   event, in occurrence order, for fine-grained analysis. Pair it with
//!   a profile, `(QueryProfile, EventLog)`, to get both views of one
//!   search.
//! * [`SearchProfiler`] — a multi-query aggregator with merge/percentile
//!   support, modeled on [`DistanceHistogram`](crate::DistanceHistogram).
//!
//! Tracing never changes *what* a search computes: answers and distance
//! totals are bit-identical with any sink (the workspace's
//! `trace_equivalence` test pins this), and the per-role distance counts
//! of a [`QueryProfile`] sum exactly to the [`Counted`](crate::Counted)
//! total of the same query.

/// Why a distance was computed during a search.
///
/// Roles partition the [`Counted`](crate::Counted) total: every metric
/// evaluation made by a traced search reports exactly one role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistanceRole {
    /// Distance from the query to a vantage/split/routing point — the
    /// price of navigation (also the paper's `d(Q, Sv1)`, `d(Q, Sv2)`).
    Vantage = 0,
    /// Distance from the query to a data point that survived every
    /// triangle-inequality filter and had to be checked exactly.
    Candidate = 1,
}

impl DistanceRole {
    /// Number of distinct roles.
    pub const COUNT: usize = 2;
    /// Every role, in counter order.
    pub const ALL: [DistanceRole; Self::COUNT] = [DistanceRole::Vantage, DistanceRole::Candidate];

    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DistanceRole::Vantage => "vantage-point",
            DistanceRole::Candidate => "leaf-candidate",
        }
    }
}

/// The filter stage whose triangle-inequality bound excluded a subtree or
/// a leaf candidate without computing its exact distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneReason {
    /// A shell around the (first) vantage point could not intersect the
    /// query ball (vp-tree cutoffs; mvp-tree `Sv1` shells).
    FirstShell = 0,
    /// A shell around the second vantage point of an mvp-tree node.
    SecondShell = 1,
    /// The pre-computed leaf distance to the first vantage point:
    /// `|d(Q, Sv1) − D1[x]| > r`.
    PrecomputedD1 = 2,
    /// The pre-computed leaf distance to the second vantage point:
    /// `|d(Q, Sv2) − D2[x]| > r`.
    PrecomputedD2 = 3,
    /// A path distance: `|PATH_Q[i] − PATH_x[i]| > r` for some `i < p`.
    PathFilter = 4,
    /// The gh-tree hyperplane bound `(d(Q, p_far) − d(Q, p_near))/2 > r`.
    Hyperplane = 5,
    /// A recorded min/max distance range (GNAT range tables; BK-tree
    /// discrete distance buckets) excluded the subtree.
    DistanceTable = 6,
}

impl PruneReason {
    /// Number of distinct reasons.
    pub const COUNT: usize = 7;
    /// Every reason, in counter order.
    pub const ALL: [PruneReason; Self::COUNT] = [
        PruneReason::FirstShell,
        PruneReason::SecondShell,
        PruneReason::PrecomputedD1,
        PruneReason::PrecomputedD2,
        PruneReason::PathFilter,
        PruneReason::Hyperplane,
        PruneReason::DistanceTable,
    ];

    /// Human-readable label for tables.
    pub fn label(self) -> &'static str {
        match self {
            PruneReason::FirstShell => "vp1-shell",
            PruneReason::SecondShell => "vp2-shell",
            PruneReason::PrecomputedD1 => "precomputed-D1",
            PruneReason::PrecomputedD2 => "precomputed-D2",
            PruneReason::PathFilter => "path-filter",
            PruneReason::Hyperplane => "hyperplane",
            PruneReason::DistanceTable => "distance-table",
        }
    }
}

/// Instrumentation interface reported into by every search algorithm.
///
/// All methods default to no-ops so a sink only overrides what it needs.
/// Every search reports every metric evaluation
/// ([`distance`](TraceSink::distance)) and every early abandonment
/// ([`abandon`](TraceSink::abandon)) unconditionally, so any sink can
/// count the search's full cost. The associated
/// [`ENABLED`](TraceSink::ENABLED) constant lets search code skip work
/// that exists *only* to feed attribution (e.g. enumerating the subtrees
/// a best-first early-exit abandoned, or attributing a leaf rejection to
/// the tightest of several filters): guarded by `if S::ENABLED`, such
/// blocks are dead code for sinks that opt out and the optimizer removes
/// them entirely.
pub trait TraceSink {
    /// `false` for sinks that need no trace-only attribution — prunes,
    /// rejects and their bounds ([`NoTrace`], which discards everything,
    /// and [`DistanceTally`](crate::DistanceTally), which only counts
    /// distances) — letting searches skip that bookkeeping.
    const ENABLED: bool = true;

    /// A tree node at depth `level` (root = 0) is being examined.
    #[inline]
    fn enter_node(&mut self, level: u32, is_leaf: bool) {
        let _ = (level, is_leaf);
    }

    /// One metric evaluation was performed in the given role.
    #[inline]
    fn distance(&mut self, role: DistanceRole) {
        let _ = role;
    }

    /// A whole subtree rooted at depth `level` was excluded; `bound` is
    /// the triangle-inequality lower bound that justified the exclusion
    /// (it exceeded the effective query radius).
    #[inline]
    fn prune(&mut self, level: u32, reason: PruneReason, bound: f64) {
        let _ = (level, reason, bound);
    }

    /// A single leaf candidate was excluded without computing its exact
    /// distance; `bound` is the excluding filter's lower bound.
    #[inline]
    fn reject(&mut self, reason: PruneReason, bound: f64) {
        let _ = (reason, bound);
    }

    /// A distance evaluation already reported via
    /// [`distance`](TraceSink::distance) was abandoned early by the
    /// bounded kernel ([`BoundedMetric`](crate::BoundedMetric)): the
    /// running lower bound provably exceeded the query's effective
    /// radius before the computation finished. `work` is the fraction of
    /// a full evaluation's arithmetic actually performed (in `[0, 1]`).
    ///
    /// This refines the cost attribution without changing the distance
    /// totals: an abandoned evaluation still counts as one computation in
    /// the paper's cost model.
    #[inline]
    fn abandon(&mut self, role: DistanceRole, work: f64) {
        let _ = (role, work);
    }
}

/// The zero-cost default sink: every method is an empty inline body and
/// [`ENABLED`](TraceSink::ENABLED) is `false`, so searches monomorphized
/// with `NoTrace` compile to the same code as if no instrumentation
/// existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;
}

/// A pair of sinks observes one search together: every event goes to
/// both, and trace-only attribution runs when either wants it.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn enter_node(&mut self, level: u32, is_leaf: bool) {
        self.0.enter_node(level, is_leaf);
        self.1.enter_node(level, is_leaf);
    }

    #[inline]
    fn distance(&mut self, role: DistanceRole) {
        self.0.distance(role);
        self.1.distance(role);
    }

    #[inline]
    fn prune(&mut self, level: u32, reason: PruneReason, bound: f64) {
        self.0.prune(level, reason, bound);
        self.1.prune(level, reason, bound);
    }

    #[inline]
    fn reject(&mut self, reason: PruneReason, bound: f64) {
        self.0.reject(reason, bound);
        self.1.reject(reason, bound);
    }

    #[inline]
    fn abandon(&mut self, role: DistanceRole, work: f64) {
        self.0.abandon(role, work);
        self.1.abandon(role, work);
    }
}

/// Summary statistics over the bounds attached to a set of prune/reject
/// events: how many there were and how decisively the triangle inequality
/// excluded them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundStats {
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for BoundStats {
    fn default() -> Self {
        BoundStats {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }
}

impl BoundStats {
    /// Records one bound observation.
    pub fn record(&mut self, bound: f64) {
        self.count += 1;
        self.min = self.min.min(bound);
        self.max = self.max.max(bound);
        self.sum += bound;
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &BoundStats) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Number of recorded events.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded bound (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded bound (`-∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean recorded bound (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.count as f64
    }
}

/// Per-depth traversal counters: how many nodes were entered and how many
/// subtrees were pruned at each level of the tree (root = level 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Nodes entered at this depth.
    pub visited: u64,
    /// Subtrees rooted at this depth that were excluded by a bound.
    pub pruned: u64,
}

/// One prune/reject event, as retained by an [`EventLog`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Depth of the pruned subtree's root (0 for leaf-candidate rejects,
    /// where depth is not meaningful).
    pub level: u32,
    /// The filter stage that excluded the subtree or candidate.
    pub reason: PruneReason,
    /// The triangle-inequality lower bound that justified the exclusion.
    pub bound: f64,
    /// `true` for a whole-subtree prune, `false` for a single leaf
    /// candidate rejected without an exact distance computation.
    pub subtree: bool,
}

/// A [`TraceSink`] that aggregates one query (or, after
/// [`merge`](QueryProfile::merge), several) into structured counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    nodes_visited: u64,
    leaves_visited: u64,
    distances: [u64; DistanceRole::COUNT],
    abandoned: [u64; DistanceRole::COUNT],
    abandoned_work: [f64; DistanceRole::COUNT],
    prunes: [BoundStats; PruneReason::COUNT],
    rejects: [BoundStats; PruneReason::COUNT],
    levels: Vec<LevelStats>,
}

impl QueryProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        QueryProfile::default()
    }

    fn level_mut(&mut self, level: u32) -> &mut LevelStats {
        let level = level as usize;
        if level >= self.levels.len() {
            self.levels.resize(level + 1, LevelStats::default());
        }
        &mut self.levels[level]
    }

    /// Total tree nodes entered (internal + leaf).
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited
    }

    /// Leaf nodes entered.
    pub fn leaves_visited(&self) -> u64 {
        self.leaves_visited
    }

    /// Distance computations performed in the given role.
    pub fn distances(&self, role: DistanceRole) -> u64 {
        self.distances[role as usize]
    }

    /// Total distance computations across all roles. Equals the
    /// [`Counted`](crate::Counted) tally of the same query exactly.
    pub fn total_distances(&self) -> u64 {
        self.distances.iter().sum()
    }

    /// Distance computations in the given role that the bounded kernel
    /// abandoned early. Always `<= distances(role)`: an abandoned
    /// evaluation is still counted as one computation.
    pub fn abandoned(&self, role: DistanceRole) -> u64 {
        self.abandoned[role as usize]
    }

    /// Total abandoned evaluations across all roles.
    pub fn total_abandoned(&self) -> u64 {
        self.abandoned.iter().sum()
    }

    /// Estimated arithmetic performed by the *abandoned* evaluations in
    /// the given role, in units of one full distance computation. The
    /// wall-clock work estimate for a role is
    /// `distances(role) - abandoned(role) + abandoned_work(role)` full
    /// evaluations.
    pub fn abandoned_work(&self, role: DistanceRole) -> f64 {
        self.abandoned_work[role as usize]
    }

    /// Estimated distance-evaluation work actually performed across all
    /// roles, in units of full evaluations: completed evaluations count
    /// 1.0 each, abandoned evaluations their partial fraction.
    pub fn estimated_work(&self) -> f64 {
        (self.total_distances() - self.total_abandoned()) as f64
            + self.abandoned_work.iter().sum::<f64>()
    }

    /// Bound summary for subtrees pruned by the given filter stage.
    pub fn prune_stats(&self, reason: PruneReason) -> &BoundStats {
        &self.prunes[reason as usize]
    }

    /// Bound summary for leaf candidates rejected by the given stage.
    pub fn reject_stats(&self, reason: PruneReason) -> &BoundStats {
        &self.rejects[reason as usize]
    }

    /// Total subtrees pruned across all stages.
    pub fn subtrees_pruned(&self) -> u64 {
        self.prunes.iter().map(BoundStats::count).sum()
    }

    /// Total leaf candidates rejected without an exact distance, across
    /// all stages.
    pub fn candidates_rejected(&self) -> u64 {
        self.rejects.iter().map(BoundStats::count).sum()
    }

    /// Per-level traversal counters, indexed by depth (root = 0).
    pub fn levels(&self) -> &[LevelStats] {
        &self.levels
    }

    /// Accumulates another profile into this one.
    pub fn merge(&mut self, other: &QueryProfile) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        for (dst, src) in self.distances.iter_mut().zip(&other.distances) {
            *dst += src;
        }
        for (dst, src) in self.abandoned.iter_mut().zip(&other.abandoned) {
            *dst += src;
        }
        for (dst, src) in self.abandoned_work.iter_mut().zip(&other.abandoned_work) {
            *dst += src;
        }
        for (dst, src) in self.prunes.iter_mut().zip(&other.prunes) {
            dst.merge(src);
        }
        for (dst, src) in self.rejects.iter_mut().zip(&other.rejects) {
            dst.merge(src);
        }
        if other.levels.len() > self.levels.len() {
            self.levels
                .resize(other.levels.len(), LevelStats::default());
        }
        for (dst, src) in self.levels.iter_mut().zip(&other.levels) {
            dst.visited += src.visited;
            dst.pruned += src.pruned;
        }
    }
}

impl TraceSink for QueryProfile {
    fn enter_node(&mut self, level: u32, is_leaf: bool) {
        self.nodes_visited += 1;
        if is_leaf {
            self.leaves_visited += 1;
        }
        self.level_mut(level).visited += 1;
    }

    fn distance(&mut self, role: DistanceRole) {
        self.distances[role as usize] += 1;
    }

    fn abandon(&mut self, role: DistanceRole, work: f64) {
        self.abandoned[role as usize] += 1;
        self.abandoned_work[role as usize] += work.clamp(0.0, 1.0);
    }

    fn prune(&mut self, level: u32, reason: PruneReason, bound: f64) {
        self.prunes[reason as usize].record(bound);
        self.level_mut(level).pruned += 1;
    }

    fn reject(&mut self, reason: PruneReason, bound: f64) {
        self.rejects[reason as usize].record(bound);
    }
}

/// A [`TraceSink`] that retains every prune/reject event of the searches
/// it observes, in occurrence order. It keeps nothing else: pair it with
/// a [`QueryProfile`] — `(QueryProfile, EventLog)` is itself a sink — to
/// get the aggregate counters as well.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<TraceEvent>,
}

impl EventLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Every retained event, in occurrence order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl TraceSink for EventLog {
    fn prune(&mut self, level: u32, reason: PruneReason, bound: f64) {
        self.events.push(TraceEvent {
            level,
            reason,
            bound,
            subtree: true,
        });
    }

    fn reject(&mut self, reason: PruneReason, bound: f64) {
        self.events.push(TraceEvent {
            level: 0,
            reason,
            bound,
            subtree: false,
        });
    }
}

/// Aggregates [`QueryProfile`]s over a query workload, tracking the
/// per-query distance totals so percentiles can be reported alongside the
/// merged counters — the same merge/quantile shape as
/// [`DistanceHistogram`](crate::DistanceHistogram).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchProfiler {
    totals: QueryProfile,
    per_query: Vec<u64>,
}

impl SearchProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        SearchProfiler::default()
    }

    /// Folds one query's profile into the aggregate.
    pub fn record(&mut self, profile: &QueryProfile) {
        self.totals.merge(profile);
        self.per_query.push(profile.total_distances());
    }

    /// Merges another profiler (e.g. from a parallel worker).
    pub fn merge(&mut self, other: &SearchProfiler) {
        self.totals.merge(&other.totals);
        self.per_query.extend_from_slice(&other.per_query);
    }

    /// Number of queries recorded.
    pub fn queries(&self) -> usize {
        self.per_query.len()
    }

    /// The merged counters across all recorded queries.
    pub fn totals(&self) -> &QueryProfile {
        &self.totals
    }

    /// Mean distance computations per query (`NaN` when empty).
    pub fn mean_distances(&self) -> f64 {
        self.totals.total_distances() as f64 / self.per_query.len() as f64
    }

    /// The `q`-percentile (nearest-rank) of per-query distance totals, or
    /// `None` when empty or `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.per_query.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let mut sorted = self.per_query.clone();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        Some(sorted[rank.min(sorted.len()) - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The whole point of this test is that the ENABLED flags are constants
    // with the right values.
    #[allow(clippy::assertions_on_constants)]
    fn no_trace_is_disabled_and_inert() {
        assert!(!NoTrace::ENABLED);
        assert!(QueryProfile::ENABLED);
        let mut sink = NoTrace;
        sink.enter_node(0, false);
        sink.distance(DistanceRole::Vantage);
        sink.abandon(DistanceRole::Candidate, 0.1);
        sink.prune(1, PruneReason::FirstShell, 2.0);
        sink.reject(PruneReason::PathFilter, 0.5);
        assert!(!<(NoTrace, NoTrace)>::ENABLED);
        assert!(<(NoTrace, QueryProfile)>::ENABLED);
    }

    #[test]
    fn a_pair_of_sinks_sees_every_event_twice() {
        let mut pair = (QueryProfile::new(), QueryProfile::new());
        pair.enter_node(0, true);
        pair.distance(DistanceRole::Candidate);
        pair.abandon(DistanceRole::Candidate, 0.5);
        pair.prune(1, PruneReason::SecondShell, 3.0);
        pair.reject(PruneReason::PrecomputedD2, 1.0);
        assert_eq!(pair.0, pair.1);
        assert_eq!(pair.0.nodes_visited(), 1);
        assert_eq!(pair.0.total_abandoned(), 1);
        assert_eq!(pair.0.subtrees_pruned(), 1);
        assert_eq!(pair.0.candidates_rejected(), 1);
    }

    #[test]
    fn profile_accumulates_all_dimensions() {
        let mut p = QueryProfile::new();
        p.enter_node(0, false);
        p.enter_node(1, true);
        p.enter_node(1, true);
        p.distance(DistanceRole::Vantage);
        p.distance(DistanceRole::Candidate);
        p.distance(DistanceRole::Candidate);
        p.abandon(DistanceRole::Candidate, 0.25);
        p.prune(1, PruneReason::FirstShell, 3.0);
        p.prune(1, PruneReason::FirstShell, 5.0);
        p.reject(PruneReason::PrecomputedD1, 1.5);

        assert_eq!(p.nodes_visited(), 3);
        assert_eq!(p.leaves_visited(), 2);
        assert_eq!(p.distances(DistanceRole::Vantage), 1);
        assert_eq!(p.distances(DistanceRole::Candidate), 2);
        assert_eq!(p.total_distances(), 3);
        assert_eq!(p.abandoned(DistanceRole::Candidate), 1);
        assert_eq!(p.abandoned(DistanceRole::Vantage), 0);
        assert_eq!(p.total_abandoned(), 1);
        assert_eq!(p.abandoned_work(DistanceRole::Candidate), 0.25);
        // 2 completed + 0.25 of the abandoned one.
        assert_eq!(p.estimated_work(), 2.25);
        assert_eq!(p.subtrees_pruned(), 2);
        assert_eq!(p.candidates_rejected(), 1);
        let shell = p.prune_stats(PruneReason::FirstShell);
        assert_eq!(shell.count(), 2);
        assert_eq!(shell.min(), 3.0);
        assert_eq!(shell.max(), 5.0);
        assert_eq!(shell.mean(), 4.0);
        assert_eq!(p.levels()[0].visited, 1);
        assert_eq!(p.levels()[1].visited, 2);
        assert_eq!(p.levels()[1].pruned, 2);
    }

    #[test]
    fn untouched_reasons_stay_empty() {
        let p = QueryProfile::new();
        for reason in PruneReason::ALL {
            assert_eq!(p.prune_stats(reason).count(), 0);
            assert_eq!(p.reject_stats(reason).count(), 0);
        }
        assert_eq!(p.total_distances(), 0);
        assert!(p.levels().is_empty());
    }

    #[test]
    fn merge_adds_counters_and_extends_levels() {
        let mut a = QueryProfile::new();
        a.enter_node(0, false);
        a.distance(DistanceRole::Vantage);
        let mut b = QueryProfile::new();
        b.enter_node(0, false);
        b.enter_node(1, true);
        b.distance(DistanceRole::Candidate);
        b.abandon(DistanceRole::Candidate, 0.5);
        b.prune(1, PruneReason::SecondShell, 7.0);
        a.merge(&b);
        assert_eq!(a.nodes_visited(), 3);
        assert_eq!(a.total_distances(), 2);
        assert_eq!(a.abandoned(DistanceRole::Candidate), 1);
        assert_eq!(a.abandoned_work(DistanceRole::Candidate), 0.5);
        assert_eq!(a.levels().len(), 2);
        assert_eq!(a.levels()[1].pruned, 1);
        assert_eq!(a.prune_stats(PruneReason::SecondShell).max(), 7.0);
    }

    #[test]
    fn labels_cover_every_variant() {
        let mut seen = std::collections::HashSet::new();
        for role in DistanceRole::ALL {
            assert!(seen.insert(role.label()));
        }
        for reason in PruneReason::ALL {
            assert!(seen.insert(reason.label()));
        }
        assert_eq!(seen.len(), DistanceRole::COUNT + PruneReason::COUNT);
    }

    #[test]
    fn profiler_percentiles_use_nearest_rank() {
        let mut profiler = SearchProfiler::new();
        assert_eq!(profiler.percentile(0.5), None);
        for total in [10u64, 20, 30, 40] {
            let mut p = QueryProfile::new();
            for _ in 0..total {
                p.distance(DistanceRole::Candidate);
            }
            profiler.record(&p);
        }
        assert_eq!(profiler.queries(), 4);
        assert_eq!(profiler.mean_distances(), 25.0);
        assert_eq!(profiler.percentile(0.0), Some(10));
        assert_eq!(profiler.percentile(0.5), Some(20));
        assert_eq!(profiler.percentile(0.75), Some(30));
        assert_eq!(profiler.percentile(1.0), Some(40));
        assert_eq!(profiler.percentile(1.5), None);
        assert_eq!(profiler.totals().total_distances(), 100);
    }

    #[test]
    fn profiler_merge_combines_workloads() {
        let mut p = QueryProfile::new();
        p.distance(DistanceRole::Vantage);
        let mut a = SearchProfiler::new();
        a.record(&p);
        let mut b = SearchProfiler::new();
        b.record(&p);
        b.record(&p);
        a.merge(&b);
        assert_eq!(a.queries(), 3);
        assert_eq!(a.totals().total_distances(), 3);
    }

    #[test]
    fn bound_stats_empty_sentinels() {
        let s = BoundStats::default();
        assert_eq!(s.count(), 0);
        assert!(s.min().is_infinite() && s.min() > 0.0);
        assert!(s.max().is_infinite() && s.max() < 0.0);
        assert!(s.mean().is_nan());
    }

    #[test]
    fn event_log_retains_individual_events_beside_a_profile() {
        let mut sink = (QueryProfile::new(), EventLog::new());
        sink.enter_node(0, false);
        sink.distance(DistanceRole::Vantage);
        sink.prune(2, PruneReason::Hyperplane, 4.0);
        sink.reject(PruneReason::PathFilter, 1.0);
        let (profile, log) = sink;
        let events = log.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].subtree);
        assert_eq!(events[0].level, 2);
        assert_eq!(events[0].reason, PruneReason::Hyperplane);
        assert_eq!(events[0].bound, 4.0);
        assert!(!events[1].subtree);
        assert_eq!(events[1].reason, PruneReason::PathFilter);
        assert_eq!(profile.subtrees_pruned(), 1);
        assert_eq!(profile.candidates_rejected(), 1);
        assert_eq!(profile.total_distances(), 1);
    }
}
