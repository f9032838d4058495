//! Digests of what an op returned and of the plan it ran under.

use adj_relational::{Attr, QueryOutput, Relation, Value};

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Folds `x` into the running digest `h`, order-dependently.
pub fn fold(h: u64, x: u64) -> u64 {
    mix(h ^ mix(x))
}

/// Digest of a set of rows that depends on neither the row order nor the
/// column order: each row hashes its `(attribute, value)` pairs
/// commutatively, and rows add up. `skip` leaves one attribute out, so a
/// bound query's rows compare equal whether or not the engine returns the
/// bound column.
pub fn rows_digest(rel: &Relation, skip: Option<Attr>) -> u64 {
    let attrs = rel.schema().attrs();
    let keep: Vec<(usize, u64)> = attrs
        .iter()
        .enumerate()
        .filter(|(_, a)| Some(**a) != skip)
        .map(|(i, a)| (i, u64::from(a.0) << 32))
        .collect();
    let mut sum = 0u64;
    for row in rel.rows() {
        let row_sum =
            keep.iter().fold(0u64, |acc, &(i, tag)| acc.wrapping_add(mix(tag | u64::from(row[i]))));
        sum = sum.wrapping_add(mix(row_sum));
    }
    fold(rel.len() as u64, sum)
}

/// [`rows_digest`] of rows given as `(attribute, value)` pairs — how the
/// oracles, which hold their answers outside a [`Relation`], spell the
/// same digest.
pub fn pairs_digest<'a>(rows: impl Iterator<Item = &'a [(Attr, Value)]>) -> u64 {
    let mut sum = 0u64;
    let mut n = 0u64;
    for row in rows {
        let row_sum = row
            .iter()
            .fold(0u64, |acc, &(a, v)| acc.wrapping_add(mix(u64::from(a.0) << 32 | u64::from(v))));
        sum = sum.wrapping_add(mix(row_sum));
        n += 1;
    }
    fold(n, sum)
}

/// Digest of one query output: the cardinality, plus the rows' digest when
/// rows were returned.
pub fn output_digest(out: &QueryOutput, skip: Option<Attr>) -> u64 {
    match out {
        QueryOutput::Rows(rel) => rows_digest(rel, skip),
        QueryOutput::Count(n) => fold(1, *n),
        QueryOutput::Exists(b) => fold(2, u64::from(*b)),
    }
}

/// Digest of the decisions the optimizer made for one op: attribute
/// order, pre-computed bags, and the share vector the shuffle ran under.
/// With `CostParams::measure_beta` off a plan is a pure function of the
/// data, so this may differ neither between rounds nor between runs.
pub fn plan_digest(order: &[Attr], precompute: &[usize], share: &[u32]) -> u64 {
    let mut h = fold(0, order.len() as u64);
    for a in order {
        h = fold(h, u64::from(a.0));
    }
    h = fold(h, precompute.len() as u64);
    for &bag in precompute {
        h = fold(h, bag as u64);
    }
    for &p in share {
        h = fold(h, u64::from(p));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::Schema;

    #[test]
    fn rows_digest_ignores_row_and_column_order() {
        let ab = Relation::from_rows(Schema::from_ids(&[0, 1]), &[&[1, 2], &[3, 4]]).unwrap();
        let ba = Relation::from_rows(Schema::from_ids(&[1, 0]), &[&[4, 3], &[2, 1]]).unwrap();
        assert_eq!(rows_digest(&ab, None), rows_digest(&ba, None));
        let other = Relation::from_rows(Schema::from_ids(&[0, 1]), &[&[1, 2], &[3, 5]]).unwrap();
        assert_ne!(rows_digest(&ab, None), rows_digest(&other, None));
        // Swapping two values between columns is a different row.
        let swapped = Relation::from_rows(Schema::from_ids(&[0, 1]), &[&[2, 1], &[3, 4]]).unwrap();
        assert_ne!(rows_digest(&ab, None), rows_digest(&swapped, None));
    }

    #[test]
    fn skip_matches_the_projected_relation_and_pairs_agree() {
        let abc =
            Relation::from_rows(Schema::from_ids(&[0, 1, 2]), &[&[7, 1, 2], &[7, 3, 4]]).unwrap();
        let bc = Relation::from_rows(Schema::from_ids(&[1, 2]), &[&[1, 2], &[3, 4]]).unwrap();
        assert_eq!(rows_digest(&abc, Some(Attr(0))), rows_digest(&bc, None));
        let pairs = [[(Attr(1), 1), (Attr(2), 2)], [(Attr(1), 3), (Attr(2), 4)]];
        assert_eq!(pairs_digest(pairs.iter().map(|r| &r[..])), rows_digest(&bc, None));
    }

    #[test]
    fn plan_digest_separates_its_parts() {
        let base = plan_digest(&[Attr(0), Attr(1)], &[], &[2, 1]);
        assert_ne!(base, plan_digest(&[Attr(1), Attr(0)], &[], &[2, 1]));
        assert_ne!(base, plan_digest(&[Attr(0), Attr(1)], &[0], &[2, 1]));
        assert_ne!(base, plan_digest(&[Attr(0), Attr(1)], &[], &[1, 2]));
    }
}
