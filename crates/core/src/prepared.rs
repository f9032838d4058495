//! The prepare/bind lifecycle of parameterized queries.
//!
//! A serving workload sees the same handful of query *shapes* with
//! different constants — "triangles through vertex v", "paths from u". A
//! [`Prepared`] is one optimized plan for such a shape; binding it to
//! concrete values ([`Prepared::bind`]) is a metadata operation, and every
//! binding executes through the same plan (and, in `adj-service`, the same
//! plan-cache and index-cache entries):
//!
//! ```
//! use adj_core::Adj;
//! use adj_query::{parse_query, Bindings};
//! use adj_relational::{Attr, OutputMode, Relation};
//!
//! // Triangles through the vertex bound to $v.
//! let (q, _) = parse_query("Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)").unwrap();
//! let g = Relation::from_pairs(Attr(0), Attr(1), &[(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let db = q.instantiate(&g);
//! let adj = Adj::with_workers(2);
//!
//! let prepared = adj.prepare(&q, &db, adj_core::Strategy::CoOptimize).unwrap();
//! let hit = adj.execute_bound(&prepared, &db, &Bindings::new().set("v", 0), OutputMode::Count);
//! let miss = adj.execute_bound(&prepared, &db, &Bindings::new().set("v", 3), OutputMode::Count);
//! assert_eq!(hit.unwrap().output.count(), Some(1)); // the 0-1-2 triangle
//! assert_eq!(miss.unwrap().output.count(), Some(0)); // no triangle at 3
//! ```

use crate::plan::QueryPlan;
use adj_query::{Bindings, ParamTable};
use adj_relational::{Attr, BoundValues, Result};

/// An optimized plan for a parameterized query shape, plus the parameter
/// table binding resolves against. Produced by [`Adj::prepare`](crate::Adj::prepare);
/// executed — once per binding — by
/// [`Adj::execute_bound`](crate::Adj::execute_bound) or the lower-level
/// [`execute_plan`](crate::executor::execute_plan) with the bound values.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The optimized plan. Structure-only: no bound *value* influences it,
    /// so one plan serves unboundedly many bindings.
    pub plan: QueryPlan,
    /// The parameter table and inline literals bindings resolve against.
    table: ParamTable,
}

impl Prepared {
    /// Wraps an optimized plan, deriving the parameter table from its
    /// query's terms.
    pub fn new(plan: QueryPlan) -> Self {
        let table = ParamTable::of(&plan.query);
        Prepared { plan, table }
    }

    /// The `$name` parameters awaiting bind-time values.
    pub fn params(&self) -> &[(String, Attr)] {
        self.table.params()
    }

    /// Resolves a binding against the parameter table: every parameter
    /// must receive a value, every supplied name must exist, and the
    /// query's inline literals are folded in. The result is the complete
    /// bound-value set one execution's join seeks.
    pub fn bind(&self, bindings: &Bindings) -> Result<BoundValues> {
        self.table.resolve(bindings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adj, Strategy};
    use adj_query::parse_query;
    use adj_relational::{Error, Relation, Value};

    #[test]
    fn bind_resolves_params_and_literals() {
        let (q, _) = parse_query("R1($v,b), R2(b,5)").unwrap();
        let edges: Vec<(Value, Value)> = (0..30).map(|i| (i % 7, (i * 3 + 1) % 7)).collect();
        let db = q.instantiate(&Relation::from_pairs(Attr(0), Attr(1), &edges));
        let adj = Adj::with_workers(2);
        let p = adj.prepare(&q, &db, Strategy::CoOptimize).unwrap();
        assert_eq!(p.params().len(), 1);
        let bound = p.bind(&Bindings::new().set("v", 3)).unwrap();
        assert_eq!(bound.len(), 2, "the $v value plus the literal 5");
        assert!(matches!(p.bind(&Bindings::new()), Err(Error::UnboundParam { .. })));
        assert!(matches!(
            p.bind(&Bindings::new().set("v", 1).set("nope", 2)),
            Err(Error::UnknownParam { .. })
        ));
    }
}
