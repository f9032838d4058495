//! Execution counters for Leapfrog runs.

/// Deterministic counters describing one Leapfrog execution.
///
/// `tuples_per_level[i]` is `|T_{i+1}|` in the paper's notation: the number
/// of partial bindings produced when extending to the `(i+1)`-th attribute.
/// Fig. 6 shows these are dominated by the last one or two levels for the
/// complex queries; Fig. 8 compares their totals across attribute orders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinCounters {
    /// Partial bindings produced per query level.
    pub tuples_per_level: Vec<u64>,
    /// Gallops inside leapfrog dances (one per value of a lone run). An
    /// intersection the probe kernel answers adds nothing here: its table
    /// lookups are [`JoinStats::probes_per_level`].
    pub intersect_ops: u64,
    /// Full result tuples emitted — pushed as rows, or added as one count
    /// per last-level node into a counting sink.
    pub output_tuples: u64,
    /// Cache hits (cached variant only).
    pub cache_hits: u64,
    /// Cache misses (cached variant only).
    pub cache_misses: u64,
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Cursor positionings per level: one per participant per binding the
    /// join descends into. At a free interior level that is an O(1)
    /// `TrieCursor::jump` to the offset the intersection recorded; on the
    /// bound prefix of a batched join it is a forward `TrieCursor::seek`.
    pub seeks_per_level: Vec<u64>,
    /// `TrieCursor::open` calls per level (descending into a child range
    /// over the full domain) — interior free levels and a batch's bound
    /// prefix only.
    pub opens_per_level: Vec<u64>,
    /// `TrieCursor::open_at` calls per level (descending directly to a
    /// bound constant, skipping the intersection entirely).
    pub open_ats_per_level: Vec<u64>,
    /// Dense-table lookups per level: the probe kernel's work at levels
    /// whose invariant runs are indexed, in place of the dance's gallops.
    pub probes_per_level: Vec<u64>,
    /// Value tables built: one per invariant run seen a second time.
    pub table_builds: u64,
    /// Bytes of value-table storage allocated. A scratch reused across
    /// joins reports its tables once, in the run that grew them.
    pub table_bytes: u64,
}

impl JoinStats {
    /// Creates per-level stats for a query with `levels` attributes.
    pub fn new(levels: usize) -> Self {
        JoinStats {
            seeks_per_level: vec![0; levels],
            opens_per_level: vec![0; levels],
            open_ats_per_level: vec![0; levels],
            probes_per_level: vec![0; levels],
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
        fn add(into: &mut Vec<u64>, from: &[u64]) {
            if into.len() < from.len() {
                into.resize(from.len(), 0);
            }
            for (i, &v) in from.iter().enumerate() {
                into[i] += v;
            }
        }
        add(&mut self.seeks_per_level, &other.seeks_per_level);
        add(&mut self.opens_per_level, &other.opens_per_level);
        add(&mut self.open_ats_per_level, &other.open_ats_per_level);
        add(&mut self.probes_per_level, &other.probes_per_level);
        self.table_builds += other.table_builds;
        self.table_bytes += other.table_bytes;
    }
}

impl JoinCounters {
    /// Creates counters for a query with `levels` attributes.
    pub fn new(levels: usize) -> Self {
        JoinCounters {
            tuples_per_level: vec![0; levels],
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

    /// Merges another run's counters into this one (used when aggregating
    /// across workers).
    pub fn merge(&mut self, other: &JoinCounters) {
        if self.tuples_per_level.len() < other.tuples_per_level.len() {
            self.tuples_per_level.resize(other.tuples_per_level.len(), 0);
        }
        for (i, &t) in other.tuples_per_level.iter().enumerate() {
            self.tuples_per_level[i] += t;
        }
        self.intersect_ops += other.intersect_ops;
        self.output_tuples += other.output_tuples;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.stats.merge(&other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intermediate_excludes_last_level() {
        let c = JoinCounters { tuples_per_level: vec![10, 20, 30], ..Default::default() };
        assert_eq!(c.intermediate_tuples(), 30);
        assert_eq!(c.total_tuples(), 60);
        assert_eq!(JoinCounters::default().intermediate_tuples(), 0);
    }

    #[test]
    fn stats_merge_resizes_and_adds() {
        let mut a = JoinStats::new(2);
        a.seeks_per_level = vec![3, 4];
        a.opens_per_level = vec![1, 1];
        let mut b = JoinStats::new(3);
        b.seeks_per_level = vec![10, 0, 7];
        b.open_ats_per_level = vec![0, 2, 0];
        b.probes_per_level = vec![0, 0, 5];
        b.table_builds = 1;
        b.table_bytes = 64;
        a.merge(&b);
        assert_eq!(a.seeks_per_level, vec![13, 4, 7]);
        assert_eq!(a.opens_per_level, vec![1, 1, 0]);
        assert_eq!(a.open_ats_per_level, vec![0, 2, 0]);
        assert_eq!(a.probes_per_level, vec![0, 0, 5]);
        assert_eq!((a.total_probes(), a.table_builds, a.table_bytes), (5, 1, 64));
        assert_eq!(a.total_seeks(), 24);
        assert_eq!(a.total_opens(), 2);
        assert_eq!(a.total_open_ats(), 2);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = JoinCounters::new(2);
        a.tuples_per_level = vec![1, 2];
        a.output_tuples = 2;
        let mut b = JoinCounters::new(3);
        b.tuples_per_level = vec![10, 20, 30];
        b.intersect_ops = 5;
        a.merge(&b);
        assert_eq!(a.tuples_per_level, vec![11, 22, 30]);
        assert_eq!(a.intersect_ops, 5);
        assert_eq!(a.output_tuples, 2);
    }
}
