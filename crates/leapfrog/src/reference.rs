//! A plain recursive Leapfrog, written against [`Trie::run_for_prefix`] and
//! dancing at every level: the oracle the join's and the cache's operation
//! counts are checked against. Test support, not part of the API.

use adj_relational::intersect::leapfrog_intersect;
use adj_relational::{Attr, Trie, Value};
use std::borrow::Borrow;

/// What [`plain_leapfrog`] shows its caller at each level visit: the values
/// bound above, the participants' runs in trie order, their intersection,
/// and the dance's gallops for it.
pub type Visit<'v> = dyn FnMut(&[Value], &[&[Value]], &[Value], u64) + 'v;

/// Walks the join of `tries` under `order` depth-first, intersecting every
/// level by the dance, and calls `visit(binding, runs, values, ops)` once
/// per level visit (`binding.len()` is the level). Returns the gallops
/// summed over the walk; an empty input trie visits nothing.
pub fn plain_leapfrog<T: Borrow<Trie>>(tries: &[T], order: &[Attr], visit: &mut Visit<'_>) -> u64 {
    fn walk<T: Borrow<Trie>>(
        tries: &[T],
        order: &[Attr],
        binding: &mut Vec<Value>,
        visit: &mut Visit<'_>,
    ) -> u64 {
        let level = binding.len();
        let runs: Vec<&[Value]> = tries
            .iter()
            .map(Borrow::borrow)
            .filter(|t| t.schema().contains(order[level]))
            .map(|t| {
                let depth = t.schema().position(order[level]).expect("participant");
                let prefix: Vec<Value> = t.schema().attrs()[..depth]
                    .iter()
                    .map(|&a| binding[order.iter().position(|&o| o == a).expect("bound above")])
                    .collect();
                t.run_for_prefix(&prefix).expect("bound prefixes exist")
            })
            .collect();
        let mut values = Vec::new();
        let mut ops = leapfrog_intersect(&runs, &mut values);
        visit(binding, &runs, &values, ops);
        if level + 1 < order.len() {
            for v in values {
                binding.push(v);
                ops += walk(tries, order, binding, visit);
                binding.pop();
            }
        }
        ops
    }
    if tries.iter().any(|t| t.borrow().tuples() == 0) {
        return 0;
    }
    walk(tries, order, &mut Vec::new(), visit)
}
