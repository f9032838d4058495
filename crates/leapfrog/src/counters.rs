//! Execution counters for Leapfrog runs.

use adj_relational::Levels;

/// Deterministic counters describing one Leapfrog execution.
///
/// `tuples_per_level[i]` is `|T_{i+1}|` in the paper's notation: the number
/// of partial bindings produced when extending to the `(i+1)`-th attribute.
/// Fig. 6 shows these are dominated by the last one or two levels for the
/// complex queries; Fig. 8 compares their totals across attribute orders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Partial bindings produced per query level.
    pub tuples_per_level: Levels<u64>,
    /// Gallops inside leapfrog dances (one per value of a lone run). An
    /// intersection the probe kernel answers adds nothing here: its table
    /// lookups are [`JoinStats::probes_per_level`].
    pub intersect_ops: u64,
    /// Full result tuples emitted — pushed as rows, or added as one count
    /// per last-level node into a counting sink.
    pub output_tuples: u64,
    /// Per-level trie-operation counts (seeks / opens / `open_at`s / probes).
    pub stats: JoinStats,
}

/// Per-trie-level operation counters: where Leapfrog's constant factors
/// live. `tuples_per_level` says how many bindings each level produced;
/// these say how many trie operations it took to produce them — the signal
/// ROADMAP's SIMD/trie work needs to know which level to attack.
///
/// The last free level of a join moves no cursor — it intersects the
/// participants' child runs in place — so it records no opens and no
/// seeks; its work shows in `intersect_ops` and `probes_per_level` alone.
/// Under a counting sink the level above it moves none either for its
/// matches: it counts the last level in its own loop, from the offsets its
/// intersection recorded, and records no seeks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Cursor positionings per level: one per participant per binding the
    /// join descends into. At a free interior level that is an O(1)
    /// `TrieCursor::jump` to the offset the intersection recorded; on a
    /// bound join's bound prefix it is a forward `TrieCursor::seek`, one per
    /// participant per binding, hit or miss — the sampler's level 0
    /// (`LeapfrogJoin::count_first_values`) among them, one per participant
    /// per distinct drawn value. A
    /// binding counted in place — a match of the level above a counted
    /// last level, whose last-level runs are read straight from the
    /// recorded offsets — is not descended into and records none, so a
    /// count's seeks stop one level above a row enumeration's.
    pub seeks_per_level: Levels<u64>,
    /// `TrieCursor::open` calls per level (descending into a child range
    /// over the full domain) — interior free levels and a bound join's bound
    /// prefix only.
    pub opens_per_level: Levels<u64>,
    /// `TrieCursor::open_at` calls per level (descending directly to a
    /// bound constant, skipping the intersection entirely) — bound levels
    /// behind a free level only, so never the sampler's level 0, which is a
    /// bound prefix and seeks.
    pub open_ats_per_level: Levels<u64>,
    /// Dense-table lookups per level: the probe kernel's work at levels
    /// whose invariant runs are indexed, in place of the dance's gallops.
    pub probes_per_level: Levels<u64>,
    /// Value tables built: one per invariant run seen a second time.
    pub table_builds: u64,
    /// Bytes of value-table storage the join had to *allocate*: a table
    /// built into a slot already large enough costs none. A scratch reused
    /// across joins reports its tables once, in the run that grew them, so
    /// a warm executor — whose workers borrow their scratch from a pool —
    /// reads 0 here while `table_builds` counts every build.
    pub table_bytes: u64,
}

impl JoinStats {
    /// Creates per-level stats for a query with `levels` attributes.
    pub fn new(levels: usize) -> Self {
        let zeros = Levels::new(levels);
        JoinStats {
            seeks_per_level: zeros,
            opens_per_level: zeros,
            open_ats_per_level: zeros,
            probes_per_level: zeros,
            table_builds: 0,
            table_bytes: 0,
        }
    }

    /// Total seek calls across levels.
    pub fn total_seeks(&self) -> u64 {
        self.seeks_per_level.iter().sum()
    }

    /// Total open calls across levels.
    pub fn total_opens(&self) -> u64 {
        self.opens_per_level.iter().sum()
    }

    /// Total `open_at` calls across levels.
    pub fn total_open_ats(&self) -> u64 {
        self.open_ats_per_level.iter().sum()
    }

    /// Total table lookups across levels.
    pub fn total_probes(&self) -> u64 {
        self.probes_per_level.iter().sum()
    }

    /// Merges another run's stats into this one (aggregating workers).
    pub fn merge(&mut self, other: &JoinStats) {
        self.seeks_per_level.add(&other.seeks_per_level);
        self.opens_per_level.add(&other.opens_per_level);
        self.open_ats_per_level.add(&other.open_ats_per_level);
        self.probes_per_level.add(&other.probes_per_level);
        self.table_builds += other.table_builds;
        self.table_bytes += other.table_bytes;
    }
}

impl JoinCounters {
    /// Creates counters for a query with `levels` attributes.
    pub fn new(levels: usize) -> Self {
        JoinCounters {
            tuples_per_level: Levels::new(levels),
            stats: JoinStats::new(levels),
            ..Default::default()
        }
    }

    /// Total intermediate tuples (all levels *before* the last; the last
    /// level's bindings are the output).
    pub fn intermediate_tuples(&self) -> u64 {
        if self.tuples_per_level.is_empty() {
            0
        } else {
            self.tuples_per_level[..self.tuples_per_level.len() - 1].iter().sum()
        }
    }

    /// Total bindings across all levels (the extension work Leapfrog did).
    pub fn total_tuples(&self) -> u64 {
        self.tuples_per_level.iter().sum()
    }

    /// Adds the counters of a join over some of this one's levels — its
    /// level `l` is this one's `levels[l]` — except its output.
    pub(crate) fn add_at(&mut self, other: &JoinCounters, levels: &[usize]) {
        let (stats, theirs) = (&mut self.stats, &other.stats);
        for (l, &at) in levels.iter().enumerate() {
            self.tuples_per_level[at] += other.tuples_per_level[l];
            stats.seeks_per_level[at] += theirs.seeks_per_level[l];
            stats.opens_per_level[at] += theirs.opens_per_level[l];
            stats.open_ats_per_level[at] += theirs.open_ats_per_level[l];
            stats.probes_per_level[at] += theirs.probes_per_level[l];
        }
        self.intersect_ops += other.intersect_ops;
        stats.table_builds += theirs.table_builds;
        stats.table_bytes += theirs.table_bytes;
    }

    /// Merges another run's counters into this one (used when aggregating
    /// across workers).
    pub fn merge(&mut self, other: &JoinCounters) {
        self.tuples_per_level.add(&other.tuples_per_level);
        self.intersect_ops += other.intersect_ops;
        self.output_tuples += other.output_tuples;
        self.stats.merge(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intermediate_excludes_last_level() {
        let tuples_per_level = [10, 20, 30].into_iter().collect();
        let c = JoinCounters { tuples_per_level, ..Default::default() };
        assert_eq!(c.intermediate_tuples(), 30);
        assert_eq!(c.total_tuples(), 60);
        assert_eq!(JoinCounters::default().intermediate_tuples(), 0);
    }

    #[test]
    fn stats_merge_resizes_and_adds() {
        let mut a = JoinStats::new(2);
        a.seeks_per_level = [3, 4].into_iter().collect();
        a.opens_per_level = [1, 1].into_iter().collect();
        let mut b = JoinStats::new(3);
        b.seeks_per_level = [10, 0, 7].into_iter().collect();
        b.open_ats_per_level = [0, 2, 0].into_iter().collect();
        b.probes_per_level = [0, 0, 5].into_iter().collect();
        b.table_builds = 1;
        b.table_bytes = 64;
        a.merge(&b);
        assert_eq!(*a.seeks_per_level, [13, 4, 7]);
        assert_eq!(*a.opens_per_level, [1, 1, 0]);
        assert_eq!(*a.open_ats_per_level, [0, 2, 0]);
        assert_eq!(*a.probes_per_level, [0, 0, 5]);
        assert_eq!((a.total_probes(), a.table_builds, a.table_bytes), (5, 1, 64));
        assert_eq!(a.total_seeks(), 24);
        assert_eq!(a.total_opens(), 2);
        assert_eq!(a.total_open_ats(), 2);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = JoinCounters::new(2);
        a.tuples_per_level = [1, 2].into_iter().collect();
        a.output_tuples = 2;
        let mut b = JoinCounters::new(3);
        b.tuples_per_level = [10, 20, 30].into_iter().collect();
        b.intersect_ops = 5;
        a.merge(&b);
        assert_eq!(*a.tuples_per_level, [11, 22, 30]);
        assert_eq!(a.intersect_ops, 5);
        assert_eq!(a.output_tuples, 2);
    }
}
