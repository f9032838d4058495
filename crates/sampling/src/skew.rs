//! Heavy-hitter detection: per-attribute skew statistics drawn from the
//! same seeded sampling machinery the cardinality estimator uses.
//!
//! The cost model and the HCube share program assume hash partitioning
//! spreads every relation evenly, but one heavy-hitter join value collapses
//! a whole hash class onto a single hypercube coordinate — a latency cliff
//! the uniform model never sees. This module samples each relation column
//! (deterministically, per seed) and reports the values whose estimated
//! frequency exceeds a caller-chosen fraction, so the optimizer can charge
//! the *max-partition* load, not just the total, when scoring share vectors.

use adj_query::JoinQuery;
use adj_relational::hash::FxHashMap;
use adj_relational::{Attr, Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the heavy-hitter detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewConfig {
    /// Row samples drawn per relation column. Sampling error on a fraction
    /// estimate is `O(1/√samples)`, so the default (1024) resolves the
    /// `min_fraction` default (1/8) with a comfortable margin.
    pub samples: usize,
    /// RNG seed (detection is deterministic given the seed).
    pub seed: u64,
    /// A value is a heavy hitter when its estimated share of a column is at
    /// least this fraction. Values above `1.0` disable detection.
    pub min_fraction: f64,
    /// At most this many heavy hitters are reported per column (the most
    /// frequent ones win). `0` disables detection.
    pub max_hot_per_column: usize,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig { samples: 1024, seed: 0x5EED_AD15, min_fraction: 0.125, max_hot_per_column: 8 }
    }
}

impl SkewConfig {
    /// A configuration that never reports a heavy hitter — the knob for the
    /// naive-hashing baseline.
    pub fn disabled() -> Self {
        SkewConfig { max_hot_per_column: 0, ..Default::default() }
    }

    /// Whether this configuration can report anything at all.
    pub fn enabled(&self) -> bool {
        self.max_hot_per_column > 0 && self.min_fraction <= 1.0 && self.samples > 0
    }
}

/// One detected heavy hitter: a value and its estimated column fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHitter {
    /// The hot value.
    pub value: Value,
    /// Estimated fraction of the column's tuples carrying it (in `(0, 1]`).
    pub fraction: f64,
}

/// Skew statistics of one relation column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSkew {
    /// The attribute this column binds.
    pub attr: Attr,
    /// Detected heavy hitters, most frequent first.
    pub hot: Vec<HeavyHitter>,
}

impl ColumnSkew {
    /// The largest detected fraction (0 when the column is uniform).
    pub fn max_fraction(&self) -> f64 {
        self.hot.first().map(|h| h.fraction).unwrap_or(0.0)
    }
}

/// Skew statistics of one relation: one [`ColumnSkew`] per schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSkew {
    /// The atom / relation name.
    pub name: String,
    /// Per-column statistics, aligned with the schema's attributes.
    pub columns: Vec<ColumnSkew>,
}

/// The per-query skew profile: heavy hitters of every relation the query
/// references, as measured against the current database contents. This is
/// the "relation stats" surface the optimizer and the share program read
/// from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkewProfile {
    /// One entry per query atom, in atom order.
    pub relations: Vec<RelationSkew>,
}

impl SkewProfile {
    /// Whether no heavy hitter was detected anywhere.
    pub fn is_empty(&self) -> bool {
        self.relations.iter().all(|r| r.columns.iter().all(|c| c.hot.is_empty()))
    }

    /// Total number of detected `(relation column, value)` heavy hitters.
    pub fn hot_value_count(&self) -> usize {
        self.relations.iter().map(|r| r.columns.iter().map(|c| c.hot.len()).sum::<usize>()).sum()
    }

    /// The largest hot fraction detected on `attr` in the relation named
    /// `name` (0 when uniform) — what the share program's max-partition term
    /// charges.
    pub fn max_fraction(&self, name: &str, attr: Attr) -> f64 {
        self.relations
            .iter()
            .filter(|r| r.name == name)
            .flat_map(|r| r.columns.iter())
            .filter(|c| c.attr == attr)
            .map(|c| c.max_fraction())
            .fold(0.0, f64::max)
    }
}

/// Samples every column of every relation `query` references in `db` and
/// returns the detected heavy hitters. Relations missing from the database
/// contribute empty statistics (the executor reports the precise error
/// later). Deterministic given `cfg.seed`.
pub fn detect_heavy_hitters(db: &Database, query: &JoinQuery, cfg: &SkewConfig) -> SkewProfile {
    let mut relations = Vec::with_capacity(query.atoms.len());
    for atom in &query.atoms {
        let mut columns = Vec::with_capacity(atom.schema.arity());
        let rel = db.get(&atom.name).ok();
        for (col, &attr) in atom.schema.attrs().iter().enumerate() {
            let hot = match rel {
                Some(rel) if cfg.enabled() && !rel.is_empty() => sample_column(rel, col, attr, cfg),
                _ => Vec::new(),
            };
            columns.push(ColumnSkew { attr, hot });
        }
        relations.push(RelationSkew { name: atom.name.clone(), columns });
    }
    SkewProfile { relations }
}

/// Samples one column and returns its heavy hitters, most frequent first
/// (frequency ties broken by ascending value, for determinism).
fn sample_column(
    rel: &adj_relational::Relation,
    col: usize,
    attr: Attr,
    cfg: &SkewConfig,
) -> Vec<HeavyHitter> {
    let n = rel.len();
    // Small relations are counted exactly — cheaper than sampling them.
    let exact = n <= cfg.samples;
    let draws = if exact { n } else { cfg.samples };
    let mut counts: FxHashMap<Value, u32> = FxHashMap::default();
    if exact {
        for row in rel.rows() {
            *counts.entry(row[col]).or_default() += 1;
        }
    } else {
        // Seed folds in the attribute id so two columns of one relation do
        // not draw correlated row sets.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x9E37 + attr.0 as u64 * 0x1_0001));
        for _ in 0..draws {
            let row = rel.row(rng.gen_range(0..n));
            *counts.entry(row[col]).or_default() += 1;
        }
    }
    // Guard against sampling flukes: besides the fraction threshold, demand
    // a handful of observations so a value seen once in a tiny sample never
    // qualifies.
    let floor = ((cfg.min_fraction * draws as f64).ceil() as u32).max(2);
    let mut hot: Vec<HeavyHitter> = counts
        .into_iter()
        .filter(|&(_, c)| c >= floor)
        .map(|(value, c)| HeavyHitter { value, fraction: c as f64 / draws as f64 })
        .filter(|h| h.fraction >= cfg.min_fraction)
        .collect();
    hot.sort_by(|a, b| b.fraction.partial_cmp(&a.fraction).unwrap().then(a.value.cmp(&b.value)));
    hot.truncate(cfg.max_hot_per_column);
    hot
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_query::{paper_query, PaperQuery};
    use adj_relational::Relation;

    /// A graph where node 0 dominates one endpoint column.
    fn hub_graph(n: u32) -> Relation {
        let mut pairs: Vec<(Value, Value)> = (0..n).map(|i| (0, i + 1)).collect();
        pairs.extend((0..n / 2).map(|i| (i % 50 + 1, (i * 7) % 50 + 60)));
        Relation::from_pairs(Attr(0), Attr(1), &pairs)
    }

    #[test]
    fn detects_the_hub_and_only_the_hub() {
        let q = paper_query(PaperQuery::Q1);
        let db = q.instantiate(&hub_graph(400));
        let profile = detect_heavy_hitters(&db, &q, &SkewConfig::default());
        assert!(!profile.is_empty());
        // R1(a,b): column a is ~2/3 value 0; column b is spread out.
        let r1 = &profile.relations[0];
        assert_eq!(r1.name, "R1");
        assert_eq!(r1.columns[0].hot.len(), 1, "{:?}", r1.columns[0].hot);
        assert_eq!(r1.columns[0].hot[0].value, 0);
        assert!(r1.columns[0].hot[0].fraction > 0.5);
        assert!(r1.columns[1].hot.is_empty(), "{:?}", r1.columns[1].hot);
        assert!(profile.max_fraction("R1", Attr(0)) > 0.5);
        assert_eq!(profile.max_fraction("R1", Attr(1)), 0.0);
    }

    #[test]
    fn uniform_columns_report_nothing() {
        let q = paper_query(PaperQuery::Q1);
        let pairs: Vec<(Value, Value)> =
            (0..500u32).map(|i| (i % 100, (i * 7 + 1) % 100)).collect();
        let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &pairs));
        let profile = detect_heavy_hitters(&db, &q, &SkewConfig::default());
        assert!(profile.is_empty(), "{profile:?}");
        assert_eq!(profile.hot_value_count(), 0);
    }

    #[test]
    fn deterministic_given_seed_and_disabled_config() {
        let q = paper_query(PaperQuery::Q1);
        let db = q.instantiate(&hub_graph(5000));
        let cfg = SkewConfig { samples: 256, ..Default::default() };
        assert_eq!(
            detect_heavy_hitters(&db, &q, &cfg),
            detect_heavy_hitters(&db, &q, &cfg),
            "same seed, same profile"
        );
        assert!(!SkewConfig::disabled().enabled());
        let off = detect_heavy_hitters(&db, &q, &SkewConfig::disabled());
        assert!(off.is_empty());
    }

    #[test]
    fn missing_relation_contributes_empty_stats() {
        let q = paper_query(PaperQuery::Q1);
        let mut db = Database::new();
        db.insert("R1", hub_graph(100));
        // R2/R3 absent.
        let profile = detect_heavy_hitters(&db, &q, &SkewConfig::default());
        assert_eq!(profile.relations.len(), 3);
        assert!(profile.relations[1].columns.iter().all(|c| c.hot.is_empty()));
    }

    #[test]
    fn hot_list_is_bounded_and_sorted() {
        let q = paper_query(PaperQuery::Q7);
        // Several hubs of descending weight.
        let mut pairs: Vec<(Value, Value)> = Vec::new();
        for (hub, copies) in [(1u32, 300u32), (2, 200), (3, 150)] {
            pairs.extend((0..copies).map(|i| (hub, 1000 + i)));
        }
        let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &pairs));
        let cfg = SkewConfig { max_hot_per_column: 2, ..Default::default() };
        let profile = detect_heavy_hitters(&db, &q, &cfg);
        let col = &profile.relations[0].columns[0];
        assert_eq!(col.hot.len(), 2, "bounded by max_hot_per_column: {:?}", col.hot);
        assert!(col.hot[0].fraction >= col.hot[1].fraction);
        assert_eq!(col.hot[0].value, 1);
    }
}
