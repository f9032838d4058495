//! Level-wise sorted tries — the index structure behind Leapfrog Triejoin.
//!
//! A [`Trie`] materializes a relation as one level per attribute (in a chosen
//! attribute order). Level `l` stores the sorted distinct values that extend
//! each node of level `l-1`, in contiguous runs addressed by offset arrays
//! (the "three arrays" layout the paper credits for cheap
//! serialization of Merge-HCube blocks, Sec. V). All Leapfrog operations are
//! gallops inside one run, so everything stays cache-friendly.

use crate::error::{Error, Result};
use crate::intersect::gallop;
use crate::relation::{checked_u32, Relation};
use crate::schema::Schema;
use crate::Value;

/// One trie level: `values` holds the child values of every level-`l-1` node
/// back to back; children of node `p` occupy `values[offsets[p]..offsets[p+1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieLevel {
    pub values: Vec<Value>,
    pub offsets: Vec<u32>,
}

impl TrieLevel {
    /// Child range of parent node `p`.
    #[inline]
    pub fn children(&self, p: usize) -> (usize, usize) {
        (self.offsets[p] as usize, self.offsets[p + 1] as usize)
    }

    /// Number of nodes in this level.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the level is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A relation materialized as a sorted trie over its schema's column order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trie {
    schema: Schema,
    levels: Vec<TrieLevel>,
    tuples: usize,
}

impl Trie {
    /// Builds a trie whose level order is the relation's column order. To use
    /// a different attribute order, [`Relation::permute`] first.
    ///
    /// # Panics
    ///
    /// If the relation has more than `u32::MAX` rows, the most its `u32`
    /// offsets can address.
    pub fn build(rel: &Relation) -> Self {
        let arity = rel.arity();
        let n = rel.len();
        let mut levels: Vec<TrieLevel> = Vec::with_capacity(arity);
        if arity == 0 {
            return Trie { schema: rel.schema().clone(), levels, tuples: 0 };
        }
        // Every offset below is a row index or a level's length, and a level
        // has at most one node per row: checking `n` once bounds them all.
        let n32 = checked_u32(n, "trie rows").unwrap_or_else(|e| panic!("Trie::build: {e}"));
        // `groups` delimits runs of rows sharing the prefix [0..l).
        let mut groups: Vec<u32> = vec![0, n32];
        for l in 0..arity {
            let mut values: Vec<Value> = Vec::new();
            let mut offsets: Vec<u32> = Vec::with_capacity(groups.len());
            let mut next_groups: Vec<u32> = Vec::new();
            offsets.push(0);
            for g in 0..groups.len() - 1 {
                let (lo, hi) = (groups[g] as usize, groups[g + 1] as usize);
                let mut i = lo;
                while i < hi {
                    let v = rel.row(i)[l];
                    next_groups.push(i as u32);
                    values.push(v);
                    // rows are sorted, so the run with this prefix value is
                    // contiguous
                    let mut j = i + 1;
                    while j < hi && rel.row(j)[l] == v {
                        j += 1;
                    }
                    i = j;
                }
                offsets.push(values.len() as u32);
            }
            next_groups.push(n32);
            levels.push(TrieLevel { values, offsets });
            groups = next_groups;
        }
        Trie { schema: rel.schema().clone(), levels, tuples: n }
    }

    /// The attribute order of the levels.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Trie depth (= relation arity).
    #[inline]
    pub fn arity(&self) -> usize {
        self.levels.len()
    }

    /// Number of tuples in the underlying relation.
    #[inline]
    pub fn tuples(&self) -> usize {
        self.tuples
    }

    /// The levels, root first.
    #[inline]
    pub fn levels(&self) -> &[TrieLevel] {
        &self.levels
    }

    /// Total number of trie nodes (used by cost model β calibration: a trie
    /// query cost grows with log of run lengths, and by memory accounting).
    pub fn num_nodes(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Approximate in-memory size in bytes (values + offsets arrays).
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.values.len() * 4 + l.offsets.len() * 4).sum()
    }

    /// Re-materializes the relation (round-trip check; also used when a trie
    /// block must be re-shuffled as tuples).
    pub fn to_relation(&self) -> Relation {
        let arity = self.arity();
        let mut data: Vec<Value> = Vec::with_capacity(self.tuples * arity);
        let mut prefix: Vec<Value> = Vec::with_capacity(arity);
        self.emit(0, 0, &mut prefix, &mut data);
        Relation::from_flat(self.schema.clone(), data).expect("trie emits valid rows")
    }

    fn emit(&self, level: usize, node_lo: usize, prefix: &mut Vec<Value>, out: &mut Vec<Value>) {
        let lvl = &self.levels[level];
        let (lo, hi) = lvl.children(node_lo);
        for i in lo..hi {
            prefix.push(lvl.values[i]);
            if level + 1 == self.arity() {
                out.extend_from_slice(prefix);
            } else {
                self.emit(level + 1, i, prefix, out);
            }
            prefix.pop();
        }
    }

    /// The sorted run of values extending `prefix` (the children of the node
    /// reached by walking `prefix` from the root), or `None` if the prefix
    /// is absent. `prefix` may be empty (returns the root level's values).
    ///
    /// This is the index-probe primitive BigJoin's per-binding extension
    /// uses, and the fast path CacheTrieJoin's β-calibration measures.
    pub fn run_for_prefix(&self, prefix: &[Value]) -> Option<&[Value]> {
        assert!(prefix.len() < self.arity(), "prefix must leave a level to extend");
        if self.tuples == 0 {
            return None;
        }
        let mut node = 0usize;
        for (l, &v) in prefix.iter().enumerate() {
            let lvl = &self.levels[l];
            let (lo, hi) = lvl.children(if l == 0 { 0 } else { node });
            let p = gallop(&lvl.values[..hi], lo, v);
            if p >= hi || lvl.values[p] != v {
                return None;
            }
            node = p;
        }
        let l = prefix.len();
        let lvl = &self.levels[l];
        let (lo, hi) = lvl.children(if l == 0 { 0 } else { node });
        Some(&lvl.values[lo..hi])
    }

    /// Opens a navigation cursor positioned at the root.
    pub fn cursor(&self) -> TrieCursor<'_> {
        self.cursor_on(CursorStack::default())
    }

    /// [`Trie::cursor`] over a level stack another cursor gave back
    /// ([`TrieCursor::into_stack`]): a caller that opens cursors again and
    /// again reuses one allocation per cursor instead of making a new one.
    pub fn cursor_on(&self, mut stack: CursorStack) -> TrieCursor<'_> {
        stack.0.clear();
        stack.0.reserve(self.arity());
        TrieCursor { trie: self, frames: stack.0 }
    }
}

/// The level stack of a [`TrieCursor`], detached from any trie so it can
/// outlive the cursor and serve the next one ([`Trie::cursor_on`],
/// [`TrieCursor::into_stack`]).
#[derive(Debug, Clone, Default)]
pub struct CursorStack(Vec<Frame>);

/// One open level of a cursor.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The sibling run: the child range of the parent node.
    lo: usize,
    hi: usize,
    /// The current position inside the run.
    pos: usize,
    /// The chosen node: `pos`, or the last position before the run ended.
    node: usize,
}

/// Navigation cursor over a [`Trie`], exposing the linear-iterator interface
/// Leapfrog Triejoin requires: `open`/`up` move between levels, `seek`/`next`
/// move within the current sibling run.
#[derive(Clone)]
pub struct TrieCursor<'a> {
    trie: &'a Trie,
    /// One frame per open level (none at the root).
    frames: Vec<Frame>,
}

impl<'a> TrieCursor<'a> {
    /// Current depth (number of open levels).
    #[inline]
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The cursor's level stack, for [`Trie::cursor_on`].
    pub fn into_stack(self) -> CursorStack {
        CursorStack(self.frames)
    }

    /// The innermost open level.
    #[inline]
    fn top(&self) -> &Frame {
        self.frames.last().expect("an open level")
    }

    #[inline]
    fn top_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("an open level")
    }

    /// Descends into the children of the current node (or the root level),
    /// positioning at the first child. Returns `false` (and does not descend)
    /// if there are no children — only possible on an empty trie at the root,
    /// since interior trie nodes always have at least one child.
    pub fn open(&mut self) -> bool {
        let (lo, hi) = self.child_range();
        if lo == hi {
            return false;
        }
        self.frames.push(Frame { lo, hi, pos: lo, node: lo });
        true
    }

    /// Range, in the next level's values, of the current node's children.
    #[inline]
    fn child_range(&self) -> (usize, usize) {
        debug_assert!(self.depth() < self.trie.arity(), "no level below the leaves");
        let parent = self.frames.last().map_or(0, |f| f.node);
        self.trie.levels[self.depth()].children(parent)
    }

    /// The children of the current node (the root level at depth 0): the
    /// run [`TrieCursor::open`] would descend into, read without descending.
    /// Leapfrog's last level intersects these runs in place, so it never
    /// opens, positions or leaves a cursor.
    #[inline]
    pub fn child_run(&self) -> &'a [Value] {
        let (lo, hi) = self.child_range();
        &self.trie.levels[self.depth()].values[lo..hi]
    }

    /// The children of the node at `offset` within the current sibling run
    /// (an index into [`TrieCursor::run`]): the run [`TrieCursor::jump`]
    /// then [`TrieCursor::child_run`] would read, read without moving the
    /// cursor. Leapfrog counts a last level inside its parent's loop this
    /// way, from the offsets the parent's intersection recorded.
    #[inline]
    pub fn child_run_at(&self, offset: usize) -> &'a [Value] {
        let &Frame { lo, hi, .. } = self.top();
        debug_assert!(lo + offset < hi, "offset past the end of the run");
        let level = &self.trie.levels[self.depth()];
        let (lo, hi) = level.children(lo + offset);
        &level.values[lo..hi]
    }

    /// Positions the cursor at `offset` within the current sibling run (an
    /// index into [`TrieCursor::run`]) in O(1). This is how Leapfrog
    /// descends into a match whose offsets the position-carrying
    /// intersection already recorded, instead of seeking the value again.
    #[inline]
    pub fn jump(&mut self, offset: usize) {
        let frame = self.top_mut();
        let p = frame.lo + offset;
        debug_assert!(p < frame.hi, "jump past the end of the run");
        frame.pos = p;
        frame.node = p;
    }

    /// Returns to the parent level.
    pub fn up(&mut self) {
        debug_assert!(self.depth() > 0, "up at root");
        self.frames.pop();
    }

    /// Whether the cursor has run past the end of the current sibling run.
    #[inline]
    pub fn at_end(&self) -> bool {
        let frame = self.top();
        frame.pos >= frame.hi
    }

    /// The value at the current position. Caller must ensure `!at_end()`.
    #[inline]
    pub fn key(&self) -> Value {
        self.trie.levels[self.depth() - 1].values[self.top().pos]
    }

    /// Advances to the next sibling.
    #[inline]
    pub fn next(&mut self) {
        let frame = self.top_mut();
        frame.pos += 1;
        if frame.pos < frame.hi {
            frame.node = frame.pos;
        }
    }

    /// Seeks to the least sibling `>= target` (galloping). Returns `true` if
    /// positioned exactly at `target`.
    pub fn seek(&mut self, target: Value) -> bool {
        let lvl = &self.trie.levels[self.depth() - 1];
        let frame = self.frames.last_mut().expect("an open level");
        let p = gallop(&lvl.values[..frame.hi], frame.pos, target);
        frame.pos = p;
        if p < frame.hi {
            frame.node = p;
            lvl.values[p] == target
        } else {
            false
        }
    }

    /// Descends into the children of the current node and gallops straight
    /// to `target` — the constant-seek primitive bound (prepared-query)
    /// Leapfrog levels use instead of intersecting candidate runs. Returns
    /// `true` when positioned exactly at `target`; on `false` the cursor is
    /// *not* descended (a failed constant seek prunes the whole subtree, so
    /// callers never need to `up()` out of it). An empty trie never
    /// descends.
    pub fn open_at(&mut self, target: Value) -> bool {
        if !self.open() {
            return false;
        }
        if self.seek(target) {
            return true;
        }
        self.up();
        false
    }

    /// The remaining sibling values from the current position (inclusive).
    /// Leapfrog's k-way intersection consumes these runs directly.
    #[inline]
    pub fn remaining(&self) -> &'a [Value] {
        let &Frame { hi, pos, .. } = self.top();
        &self.trie.levels[self.depth() - 1].values[pos..hi]
    }

    /// Full sibling run at the current depth, independent of position.
    #[inline]
    pub fn run(&self) -> &'a [Value] {
        let &Frame { lo, hi, .. } = self.top();
        &self.trie.levels[self.depth() - 1].values[lo..hi]
    }
}

impl Relation {
    /// Builds a trie over this relation under attribute order `order`
    /// restricted to this relation's attributes.
    ///
    /// `order` is the query-global Leapfrog order; the trie levels follow the
    /// induced order of this relation's own attributes, as HCubeJ does when
    /// loading shuffled tuples into tries. A relation is stored sorted under
    /// its own column order, so when that *is* the induced order the trie is
    /// built straight from it — no copy, no re-sort.
    pub fn trie_under_order(&self, order: &[crate::schema::Attr]) -> Result<Trie> {
        let induced: Vec<_> =
            order.iter().copied().filter(|a| self.schema().contains(*a)).collect();
        if induced.len() != self.arity() {
            return Err(Error::SchemaMismatch {
                left: self.schema().to_string(),
                right: format!("{induced:?}"),
            });
        }
        if induced == self.schema().attrs() {
            return Ok(Trie::build(self));
        }
        Ok(Trie::build(&self.permute(&induced)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attr;

    fn rel(ids: &[u32], rows: &[&[Value]]) -> Relation {
        Relation::from_rows(Schema::from_ids(ids), rows).unwrap()
    }

    #[test]
    fn build_and_roundtrip() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 1], &[1, 2, 2], &[2, 1, 1], &[2, 1, 4], &[2, 2, 1]]);
        let t = Trie::build(&r);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.tuples(), 5);
        assert_eq!(t.levels()[0].values, vec![1, 2]);
        assert_eq!(t.to_relation(), r);
    }

    #[test]
    fn level_offsets_group_children() {
        let r = rel(&[0, 1], &[&[1, 5], &[1, 7], &[3, 2]]);
        let t = Trie::build(&r);
        // level 0: values [1,3], one root group
        assert_eq!(t.levels()[0].values, vec![1, 3]);
        assert_eq!(t.levels()[0].offsets, vec![0, 2]);
        // level 1: children of node(1)= [5,7], node(3)=[2]
        assert_eq!(t.levels()[1].values, vec![5, 7, 2]);
        assert_eq!(t.levels()[1].offsets, vec![0, 2, 3]);
    }

    #[test]
    fn cursor_walks_and_seeks() {
        let r = rel(&[0, 1], &[&[1, 5], &[1, 7], &[3, 2], &[3, 9]]);
        let t = Trie::build(&r);
        let mut c = t.cursor();
        assert!(c.open());
        assert_eq!(c.key(), 1);
        assert!(c.open());
        assert_eq!(c.remaining(), &[5, 7]);
        assert!(!c.seek(6));
        assert_eq!(c.key(), 7);
        c.up();
        assert!(c.seek(3));
        assert!(c.open());
        assert_eq!(c.remaining(), &[2, 9]);
        assert!(c.seek(9));
        c.next();
        assert!(c.at_end());
    }

    #[test]
    fn open_at_seeks_constants_and_prunes_misses() {
        let r = rel(&[0, 1], &[&[1, 5], &[1, 7], &[3, 2], &[3, 9]]);
        let t = Trie::build(&r);
        let mut c = t.cursor();
        assert!(c.open_at(3), "root level holds 3");
        assert_eq!(c.key(), 3);
        assert!(c.open_at(9));
        assert_eq!((c.depth(), c.key()), (2, 9));
        c.up();
        assert!(!c.open_at(5), "3's children are {{2,9}}");
        assert_eq!(c.depth(), 1, "failed seek must not leave the level open");
        c.up();
        assert!(!c.open_at(2), "root holds {{1,3}} only");
        assert_eq!(c.depth(), 0);
        // empty trie: no descent, no panic
        let empty = Trie::build(&Relation::empty(Schema::from_ids(&[0, 1])));
        assert!(!empty.cursor().open_at(1));
    }

    #[test]
    fn child_run_reads_without_descending_and_jump_positions() {
        let r = rel(&[0, 1], &[&[1, 5], &[1, 7], &[3, 2], &[3, 9]]);
        let t = Trie::build(&r);
        let mut c = t.cursor();
        assert_eq!(c.child_run(), &[1, 3], "the root level at depth 0");
        assert_eq!(c.depth(), 0);
        assert!(c.open());
        c.jump(1);
        assert_eq!(c.key(), 3);
        assert_eq!(c.child_run(), &[2, 9], "children of the node jumped to");
        assert_eq!(c.depth(), 1);
        assert_eq!((c.child_run_at(0), c.child_run_at(1)), (&[5u32, 7][..], &[2u32, 9][..]));
        assert_eq!((c.depth(), c.key()), (1, 3), "reading a child run moves nothing");
        c.jump(0);
        assert_eq!((c.key(), c.child_run()), (1, &[5u32, 7][..]));
        assert!(c.open());
        assert_eq!(c.run(), &[5, 7]);
    }

    #[test]
    fn cursor_seek_past_end() {
        let r = rel(&[0], &[&[1], &[2]]);
        let t = Trie::build(&r);
        let mut c = t.cursor();
        c.open();
        assert!(!c.seek(5));
        assert!(c.at_end());
    }

    #[test]
    fn empty_trie() {
        let r = Relation::empty(Schema::from_ids(&[0, 1]));
        let t = Trie::build(&r);
        assert_eq!(t.tuples(), 0);
        let mut c = t.cursor();
        assert!(!c.open());
    }

    #[test]
    fn trie_under_global_order() {
        // relation on (c, a); global order a ≺ b ≺ c induces (a, c)
        let r = rel(&[2, 0], &[&[9, 1], &[8, 1], &[7, 2]]);
        let t = r.trie_under_order(&[Attr(0), Attr(1), Attr(2)]).unwrap();
        assert_eq!(t.schema().attrs(), &[Attr(0), Attr(2)]);
        assert_eq!(t.levels()[0].values, vec![1, 2]);
        assert_eq!(t.to_relation().len(), 3);
    }

    #[test]
    fn trie_under_schema_order_equals_the_permuted_build() {
        // The induced order is the schema order: the trie built straight
        // from the relation must be the one the permute path builds.
        let r = rel(&[2, 0], &[&[9, 1], &[8, 1], &[7, 2], &[7, 5]]);
        let direct = r.trie_under_order(&[Attr(2), Attr(1), Attr(0)]).unwrap();
        let permuted = Trie::build(&r.permute(&[Attr(2), Attr(0)]).unwrap());
        assert_eq!(direct, permuted);
        assert_eq!(direct.to_relation(), r);
    }

    #[test]
    fn trie_under_order_missing_attr_errors() {
        let r = rel(&[0, 1], &[&[1, 2]]);
        assert!(r.trie_under_order(&[Attr(0)]).is_err());
    }

    #[test]
    fn run_for_prefix_probes() {
        let r = rel(&[0, 1, 2], &[&[1, 2, 7], &[1, 2, 9], &[1, 3, 5], &[4, 2, 6]]);
        let t = Trie::build(&r);
        assert_eq!(t.run_for_prefix(&[]), Some(&[1u32, 4][..]));
        assert_eq!(t.run_for_prefix(&[1]), Some(&[2u32, 3][..]));
        assert_eq!(t.run_for_prefix(&[1, 2]), Some(&[7u32, 9][..]));
        assert_eq!(t.run_for_prefix(&[4, 2]), Some(&[6u32][..]));
        assert_eq!(t.run_for_prefix(&[2]), None);
        assert_eq!(t.run_for_prefix(&[1, 9]), None);
        let empty = Trie::build(&Relation::empty(Schema::from_ids(&[0, 1])));
        assert_eq!(empty.run_for_prefix(&[]), None);
    }

    #[test]
    fn size_accounting_positive() {
        let r = rel(&[0, 1], &[&[1, 5], &[1, 7]]);
        let t = Trie::build(&r);
        assert!(t.size_bytes() > 0);
        assert_eq!(t.num_nodes(), 1 + 2);
    }
}
