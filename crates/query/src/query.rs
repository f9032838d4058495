//! Natural-join queries (Eq. (1) of the paper).

use crate::hypergraph::Hypergraph;
use adj_relational::{Attr, BoundValues, Database, Error, Relation, Result, Schema, Value};

/// One argument position of an atom: the three-valued term model of the
/// prepared-query contract.
///
/// Every position — including constants and parameters — is backed by a
/// query attribute in the atom's [`Schema`] (the parser interns literals
/// and `$name` placeholders exactly like variables), so the planner's
/// hypergraph/GHD/order machinery never changes. The term records the
/// position's *surface form*: whether the attribute is free, pinned to an
/// inline literal, or awaiting a bind-time value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A free join variable bound by the query's other atoms.
    Var(Attr),
    /// An inline literal constant: the attribute is fixed to this value.
    Const(Value),
    /// A `$name` placeholder: the attribute's value arrives at bind time.
    Param(String),
}

impl Term {
    /// Whether the term pins its attribute to a constant (inline literal or
    /// bind-time parameter) rather than leaving it a free variable.
    pub fn is_bound(&self) -> bool {
        !matches!(self, Term::Var(_))
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Var(a) => write!(f, "{a}"),
            Term::Const(v) => write!(f, "{v}"),
            Term::Param(name) => write!(f, "${name}"),
        }
    }
}

/// One atom `R_i(args(R_i))` of a join query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Name of the relation in the database (e.g. `"R1"`).
    pub name: String,
    /// The atom's schema (which query attributes it binds, in order). Every
    /// argument position has one — constant and parameter positions are
    /// backed by interned attributes just like variables.
    pub schema: Schema,
    /// The surface form of each argument position, parallel to
    /// `schema.attrs()`.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an all-variable atom (the classic natural-join form).
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let terms = schema.attrs().iter().map(|&a| Term::Var(a)).collect();
        Atom { name: name.into(), schema, terms }
    }

    /// Creates an atom with explicit terms (the parser's entry point for
    /// literals and `$name` placeholders). `terms` must be parallel to the
    /// schema: one term per attribute position.
    pub fn with_terms(name: impl Into<String>, schema: Schema, terms: Vec<Term>) -> Self {
        assert_eq!(terms.len(), schema.arity(), "one term per schema position");
        Atom { name: name.into(), schema, terms }
    }
}

/// Bind-time values for a prepared query's `$name` parameters.
///
/// Built with the fluent [`Bindings::set`]; names may be written with or
/// without the `$` sigil. Re-setting a name overwrites its value (builder
/// semantics), so a `Bindings` can be reused across a re-bind loop.
///
/// ```
/// use adj_query::Bindings;
/// let b = Bindings::new().set("v", 7).set("$w", 9);
/// assert_eq!(b.get("v"), Some(7));
/// assert_eq!(b.get("w"), Some(9));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bindings {
    pairs: Vec<(String, Value)>,
}

impl Bindings {
    /// An empty binding set.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Sets parameter `name` (with or without the leading `$`) to `value`,
    /// overwriting any previous value.
    pub fn set(mut self, name: impl AsRef<str>, value: Value) -> Self {
        let name = name.as_ref().trim_start_matches('$');
        match self.pairs.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.pairs.push((name.to_string(), value)),
        }
        self
    }

    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        let name = name.trim_start_matches('$');
        self.pairs.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no parameter is bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `(name, value)` pairs in insertion order.
    pub fn pairs(&self) -> &[(String, Value)] {
        &self.pairs
    }
}

/// A natural join query `Q :- R1 ⋈ R2 ⋈ … ⋈ Rm`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinQuery {
    /// Human-readable query name (`"Q5"` etc.).
    pub name: String,
    /// The atoms, in declaration order.
    pub atoms: Vec<Atom>,
}

impl JoinQuery {
    /// Creates a query from atoms.
    pub fn new(name: impl Into<String>, atoms: Vec<Atom>) -> Self {
        JoinQuery { name: name.into(), atoms }
    }

    /// Builds a query over binary atoms given `(x, y)` attribute-id pairs —
    /// the shape of every subgraph query in the paper's workload. Atom `i`
    /// is named `R{i+1}`.
    pub fn from_edges(name: impl Into<String>, edges: &[(u32, u32)]) -> Self {
        let atoms = edges
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| Atom::new(format!("R{}", i + 1), Schema::from_ids(&[x, y])))
            .collect();
        JoinQuery::new(name, atoms)
    }

    /// `attrs(Q)`: the distinct attributes, sorted by id. The paper assumes
    /// an arbitrary global order `ord`; sorted-by-id is our canonical one.
    pub fn attrs(&self) -> Vec<Attr> {
        let mut mask = 0u64;
        for a in &self.atoms {
            mask |= a.schema.mask();
        }
        (0..64).filter(|i| mask & (1 << i) != 0).map(Attr).collect()
    }

    /// Number of distinct attributes `n = |attrs(Q)|`.
    pub fn num_attrs(&self) -> usize {
        self.attrs().len()
    }

    /// The query's hypergraph `H = (V, E)` (Sec. II).
    pub fn hypergraph(&self) -> Hypergraph {
        Hypergraph::new(
            self.num_attrs() as u32,
            self.atoms.iter().map(|a| a.schema.mask()).collect(),
        )
    }

    /// Atoms containing `attr` — the set `R_{i+1}` of Algorithm 1 line 4.
    pub fn atoms_with(&self, attr: Attr) -> Vec<&Atom> {
        self.atoms.iter().filter(|a| a.schema.contains(attr)).collect()
    }

    /// Whether any atom position is a constant or parameter.
    pub fn has_bound_terms(&self) -> bool {
        self.atoms.iter().any(|a| a.terms.iter().any(Term::is_bound))
    }

    /// The query's `$name` parameters as `(name, attr)` pairs, in first
    /// occurrence order, deduplicated (the same name in several positions
    /// interns to one attribute).
    pub fn param_attrs(&self) -> Vec<(String, Attr)> {
        let mut params: Vec<(String, Attr)> = Vec::new();
        for atom in &self.atoms {
            for (term, &attr) in atom.terms.iter().zip(atom.schema.attrs()) {
                if let Term::Param(name) = term {
                    if !params.iter().any(|(n, _)| n == name) {
                        params.push((name.clone(), attr));
                    }
                }
            }
        }
        params
    }

    /// Checks that every `$name` parameter has a value in `bound`, naming
    /// the first one that does not ([`Error::UnboundParam`]). Walks the
    /// terms in place — no parameter table is allocated.
    pub fn require_params_bound(&self, bound: &BoundValues) -> Result<()> {
        for atom in &self.atoms {
            for (term, &attr) in atom.terms.iter().zip(atom.schema.attrs()) {
                if let Term::Param(name) = term {
                    if bound.get(attr).is_none() {
                        return Err(Error::UnboundParam { name: name.clone() });
                    }
                }
            }
        }
        Ok(())
    }

    /// The inline-literal selections: every `Const` position's
    /// `attr = value` pair. Repeated literals intern to one attribute, so
    /// the set is conflict-free by construction for parsed queries.
    pub fn const_bindings(&self) -> Result<BoundValues> {
        let mut pairs: Vec<(Attr, Value)> = Vec::new();
        for atom in &self.atoms {
            for (term, &attr) in atom.terms.iter().zip(atom.schema.attrs()) {
                if let Term::Const(v) = term {
                    pairs.push((attr, *v));
                }
            }
        }
        BoundValues::new(pairs)
    }

    /// Resolves the full bound-value set of one execution: inline literals
    /// plus the supplied parameter values. Every parameter must be bound
    /// ([`Error::UnboundParam`]) and every supplied name must exist
    /// ([`Error::UnknownParam`]) — a typo'd binding is an error, not a
    /// silently-ignored no-op.
    pub fn resolve_bindings(&self, bindings: &Bindings) -> Result<BoundValues> {
        let params = self.param_attrs();
        let mut pairs: Vec<(Attr, Value)> = Vec::new();
        for (name, attr) in &params {
            match bindings.get(name) {
                Some(v) => pairs.push((*attr, v)),
                None => return Err(Error::UnboundParam { name: name.clone() }),
            }
        }
        for (name, _) in bindings.pairs() {
            if !params.iter().any(|(n, _)| n == name) {
                return Err(Error::UnknownParam { name: name.clone() });
            }
        }
        self.const_bindings()?.merged(&BoundValues::new(pairs)?)
    }

    /// A copy with every inline literal's *value* erased (set to 0),
    /// preserving the term kinds and attribute structure. Two queries that
    /// differ only in constant values erase to identical queries — the
    /// discipline check behind "constants never leak into `plan_key`".
    pub fn erase_bound_values(&self) -> JoinQuery {
        let atoms = self
            .atoms
            .iter()
            .map(|a| {
                let terms = a
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Const(_) => Term::Const(0),
                        other => other.clone(),
                    })
                    .collect();
                Atom::with_terms(a.name.clone(), a.schema.clone(), terms)
            })
            .collect();
        JoinQuery::new(self.name.clone(), atoms)
    }

    /// Instantiates a database for a "test-case" (Sec. VII-A): every atom
    /// receives a copy of `graph` (a binary relation) renamed to the atom's
    /// schema. Panics if any atom is not binary.
    pub fn instantiate(&self, graph: &Relation) -> Database {
        assert_eq!(graph.arity(), 2, "paper test-cases use binary (graph) relations");
        let mut db = Database::new();
        for atom in &self.atoms {
            assert_eq!(atom.schema.arity(), 2, "subgraph workload atoms are binary");
            let from = graph.schema().attrs().to_vec();
            let to = atom.schema.attrs().to_vec();
            let renamed =
                graph.rename(|a| if a == from[0] { to[0] } else { to[1] }).expect("binary rename");
            db.insert(atom.name.clone(), renamed);
        }
        db
    }

    /// Verifies (in debug/test harnesses) that `tuple` over `order` is a
    /// result tuple: its projection onto every atom is in that atom's
    /// relation. This is the paper's definition of a resulting tuple τ.
    pub fn verify_tuple(
        &self,
        db: &Database,
        order: &[Attr],
        tuple: &[adj_relational::Value],
    ) -> bool {
        for atom in &self.atoms {
            let rel = match db.get(&atom.name) {
                Ok(r) => r,
                Err(_) => return false,
            };
            let mut proj = Vec::with_capacity(atom.schema.arity());
            for &a in atom.schema.attrs() {
                match order.iter().position(|&o| o == a) {
                    Some(p) => proj.push(tuple[p]),
                    None => return false,
                }
            }
            if !rel.contains_row(&proj) {
                return false;
            }
        }
        true
    }
}

impl std::fmt::Display for JoinQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} :- ", self.name)?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " ⋈ ")?;
            }
            write!(f, "{}(", a.name)?;
            for (j, t) in a.terms.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{t}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adj_relational::Value;

    #[test]
    fn attrs_and_hypergraph() {
        // The running example Q (Eq. (2)).
        let q = JoinQuery::new(
            "Q",
            vec![
                Atom::new("R1", Schema::from_ids(&[0, 1, 2])),
                Atom::new("R2", Schema::from_ids(&[0, 3])),
                Atom::new("R3", Schema::from_ids(&[2, 3])),
                Atom::new("R4", Schema::from_ids(&[1, 4])),
                Atom::new("R5", Schema::from_ids(&[2, 4])),
            ],
        );
        assert_eq!(q.num_attrs(), 5);
        assert_eq!(q.attrs(), vec![Attr(0), Attr(1), Attr(2), Attr(3), Attr(4)]);
        let h = q.hypergraph();
        assert_eq!(h.num_edges(), 5);
        assert_eq!(q.atoms_with(Attr(2)).len(), 3); // R1, R3, R5
    }

    #[test]
    fn from_edges_names_atoms() {
        let q = JoinQuery::from_edges("Q1", &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(q.atoms[2].name, "R3");
        assert_eq!(q.to_string(), "Q1 :- R1(a,b) ⋈ R2(b,c) ⋈ R3(a,c)");
    }

    #[test]
    fn instantiate_copies_graph_per_atom() {
        let q = JoinQuery::from_edges("Q1", &[(0, 1), (1, 2), (0, 2)]);
        let g = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (2, 3), (1, 3)]);
        let db = q.instantiate(&g);
        assert_eq!(db.len(), 3);
        assert_eq!(db.get("R2").unwrap().schema().attrs(), &[Attr(1), Attr(2)]);
        assert_eq!(db.get("R2").unwrap().len(), 3);
    }

    #[test]
    fn term_model_and_binding_resolution() {
        // R1(5, b), R2(b, $v): one literal, one parameter.
        let q = JoinQuery::new(
            "Q",
            vec![
                Atom::with_terms(
                    "R1",
                    Schema::from_ids(&[0, 1]),
                    vec![Term::Const(5), Term::Var(Attr(1))],
                ),
                Atom::with_terms(
                    "R2",
                    Schema::from_ids(&[1, 2]),
                    vec![Term::Var(Attr(1)), Term::Param("v".into())],
                ),
            ],
        );
        assert!(q.has_bound_terms());
        assert_eq!(q.param_attrs(), vec![("v".to_string(), Attr(2))]);
        assert_eq!(q.const_bindings().unwrap().pairs(), &[(Attr(0), 5)]);

        let resolved = q.resolve_bindings(&Bindings::new().set("v", 9)).unwrap();
        assert_eq!(resolved.pairs(), &[(Attr(0), 5), (Attr(2), 9)]);

        let missing = q.resolve_bindings(&Bindings::new()).unwrap_err();
        assert!(matches!(missing, adj_relational::Error::UnboundParam { .. }));
        let typo = q.resolve_bindings(&Bindings::new().set("v", 1).set("w", 2)).unwrap_err();
        assert!(matches!(typo, adj_relational::Error::UnknownParam { .. }));

        // Erasure keeps structure, drops values.
        let erased = q.erase_bound_values();
        assert_eq!(erased.atoms[0].terms[0], Term::Const(0));
        assert_eq!(erased.atoms[1].terms[1], Term::Param("v".into()));
        assert_eq!(erased.atoms[0].schema, q.atoms[0].schema);

        assert_eq!(q.to_string(), "Q :- R1(5,b) ⋈ R2(b,$v)");
    }

    #[test]
    fn plain_queries_have_no_bound_terms() {
        let q = JoinQuery::from_edges("Q1", &[(0, 1), (1, 2), (0, 2)]);
        assert!(!q.has_bound_terms());
        assert!(q.param_attrs().is_empty());
        assert!(q.const_bindings().unwrap().is_empty());
        assert!(q.resolve_bindings(&Bindings::new()).unwrap().is_empty());
    }

    #[test]
    fn verify_tuple_checks_projections() {
        let q = JoinQuery::from_edges("Q1", &[(0, 1), (1, 2), (0, 2)]);
        let g = Relation::from_pairs(Attr(0), Attr(1), &[(1, 2), (2, 3), (1, 3)]);
        let db = q.instantiate(&g);
        let order = [Attr(0), Attr(1), Attr(2)];
        let t: Vec<Value> = vec![1, 2, 3]; // triangle 1-2-3
        assert!(q.verify_tuple(&db, &order, &t));
        let bad: Vec<Value> = vec![1, 2, 4];
        assert!(!q.verify_tuple(&db, &order, &bad));
    }
}
