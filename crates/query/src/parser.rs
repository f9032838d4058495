//! A small datalog-style parser for join queries, so applications and tests
//! can write queries the way the paper does:
//!
//! ```text
//! Q(a,b,c,d,e) :- R1(a,b,c), R2(a,d), R3(c,d), R4(b,e), R5(c,e)
//! ```
//!
//! Attribute names are single identifiers; they are interned in first-use
//! order (`a` → `Attr(0)`, …). The head is optional (`R1(a,b), R2(b,c)` is
//! accepted) and, when present, must bind exactly the attributes appearing
//! in the body — natural joins have no projection (the paper's future-work
//! section leaves select/project/join to later work).
//!
//! Query text may carry an **output-mode prefix** ([`parse_query_with_mode`])
//! selecting what the execution returns instead of the full result:
//!
//! ```text
//! COUNT(Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c))   -- cardinality only
//! EXISTS(R1(a,b), R2(b,c))                        -- emptiness only
//! LIMIT 10 (R1(a,b), R2(b,c))                     -- at most 10 rows
//! ```
//!
//! Keywords are case-insensitive and the parentheses are optional
//! (`COUNT R1(a,b), R2(b,c)` works). A parenthesized *atom* that merely
//! shares a keyword's spelling (`COUNT(a,b)` as a relation named `COUNT`)
//! is still parsed as an atom: the prefix form requires a nested `(` inside
//! the wrapping parentheses.
//!
//! Atom arguments follow the **three-valued term model** of prepared
//! queries ([`Term`]): besides variables, a position may hold an inline
//! integer literal (`R1(5,b)` — triangles through vertex 5) or a `$name`
//! placeholder (`R1($v,b)` — bound per execution). Literals and
//! placeholders are interned as attributes exactly like variables (by their
//! spelling: every `$v` is one attribute, every `5` is one attribute), so
//! the planner sees an ordinary natural join; the term list records which
//! attributes are pinned. A head, when present, must bind exactly the
//! *variable* attributes (constant columns are implicitly in the result —
//! natural joins still have no projection).
//!
//! Parse failures report the **byte offset** of the offending token in the
//! text handed to the entry point ([`Error::Parse`]), so a serving front
//! door can point at the mistake instead of echoing the whole query.

use crate::query::{Atom, JoinQuery, Term};
use adj_relational::{Attr, Error, OutputMode, Result, Schema, Value};

/// Parses a query string with an optional output-mode prefix
/// (`COUNT(…)`, `EXISTS(…)`, `LIMIT k (…)`; see the module docs). Returns
/// the query, the interned attribute names, and the requested
/// [`OutputMode`] (`Rows` when no prefix is present).
pub fn parse_query_with_mode(input: &str) -> Result<(JoinQuery, Vec<String>, OutputMode)> {
    let (mode, body) = strip_mode_prefix(input, input)?;
    let (query, names) = parse_query_in(input, body)?;
    Ok((query, names, mode))
}

/// What an `EXPLAIN` prefix asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplainMode {
    /// `EXPLAIN …` — render the chosen plan without executing the query.
    Plan,
    /// `EXPLAIN ANALYZE …` — execute the query and annotate the rendered
    /// plan with measured actuals.
    Analyze,
}

/// Parses a query string carrying an `EXPLAIN` / `EXPLAIN ANALYZE` prefix
/// in front of the usual mode-prefixed query text
/// (`EXPLAIN ANALYZE COUNT(R1(a,b), R2(b,c), R3(a,c))`). Returns `None`
/// when no `EXPLAIN` prefix is present — the text is an ordinary query for
/// [`parse_query_with_mode`]. Keywords follow the same discipline as
/// `COUNT`/`LIMIT`: case-insensitive, optional wrapping parentheses, and a
/// parenthesized *atom* merely named `EXPLAIN`/`ANALYZE` stays an atom.
#[allow(clippy::type_complexity)]
pub fn parse_query_explain(
    input: &str,
) -> Result<Option<(JoinQuery, Vec<String>, OutputMode, ExplainMode)>> {
    let s = input.trim();
    let Some(rest) = keyword_prefix(s, "EXPLAIN") else { return Ok(None) };
    let Some(body) = unwrap_mode_body(rest) else { return Ok(None) };
    let (explain, body) = match keyword_prefix(body, "ANALYZE").and_then(unwrap_mode_body) {
        Some(inner) => (ExplainMode::Analyze, inner),
        None => (ExplainMode::Plan, body),
    };
    let (mode, body) = strip_mode_prefix(input, body)?;
    let (query, names) = parse_query_in(input, body)?;
    Ok(Some((query, names, mode, explain)))
}

/// Recognizes an output-mode prefix and returns the remaining query text.
fn strip_mode_prefix<'a>(full: &str, input: &'a str) -> Result<(OutputMode, &'a str)> {
    let s = input.trim();
    for (kw, mode) in [("COUNT", OutputMode::Count), ("EXISTS", OutputMode::Exists)] {
        if let Some(rest) = keyword_prefix(s, kw) {
            if let Some(body) = unwrap_mode_body(rest) {
                return Ok((mode, body));
            }
        }
    }
    if let Some(rest) = keyword_prefix(s, "LIMIT") {
        // `LIMIT(a,b)` is an atom of a relation named LIMIT (mirroring the
        // COUNT/EXISTS fallback); only `LIMIT <k> …` is the mode prefix.
        if rest.starts_with('(') {
            return Ok((OutputMode::Rows, s));
        }
        let rest = rest.trim_start();
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 {
            // Pinned-down edge semantics: `LIMIT 0 (…)` is a legal query
            // whose answer is the empty relation (the executor
            // short-circuits it without dispatching any worker), and a
            // count too large for `usize` saturates — any limit at or above
            // the result cardinality already means "all rows", so an
            // absurdly large one is a valid way to spell that, not a parse
            // error that 500s a serving thread.
            let n: usize = rest[..digits].parse().unwrap_or(usize::MAX);
            let body = unwrap_mode_body(&rest[digits..])
                .ok_or_else(|| perr(full, rest, "LIMIT needs a query after the count"))?;
            return Ok((OutputMode::Limit(n), body));
        }
        return Err(perr(full, rest, "LIMIT needs a tuple count"));
    }
    Ok((OutputMode::Rows, s))
}

/// `keyword_prefix("COUNT(…)", "COUNT")` → the text after the keyword,
/// provided the keyword is delimited (next char is `(`, whitespace, or
/// end) so relation names like `COUNTRY` never match. Comparison is on
/// raw bytes: a successful ASCII-case-insensitive match proves the
/// boundary at `kw.len()` is a char boundary, so arbitrary (multibyte)
/// query text can never panic here.
fn keyword_prefix<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    if s.len() < kw.len() || !s.as_bytes()[..kw.len()].eq_ignore_ascii_case(kw.as_bytes()) {
        return None;
    }
    let rest = &s[kw.len()..];
    match rest.chars().next() {
        None | Some('(') => Some(rest),
        Some(c) if c.is_whitespace() => Some(rest),
        _ => None,
    }
}

/// Unwraps the `(…)` around a mode prefix's query body, if present. To
/// stay unambiguous with a plain *atom* named like a keyword
/// (`COUNT(a,b)`), the wrapped form counts only when the inside holds a
/// nested `(` — i.e. at least one atom of its own. Returns `None` when no
/// body remains at all.
fn unwrap_mode_body(rest: &str) -> Option<&str> {
    let rest = rest.trim();
    if rest.is_empty() {
        return None;
    }
    if rest.starts_with('(') {
        // Only a paren that wraps the *entire* remainder (balanced to the
        // last char) and holds a nested atom is a mode wrapper; anything
        // else (`(a,b)` attribute lists, unbalanced text) falls back to
        // the plain parser under the keyword-named relation reading.
        let inner = wrapping_parens(rest)?;
        return inner.contains('(').then(|| inner.trim());
    }
    Some(rest)
}

/// If `s`'s leading `(` matches a `)` at its very end, the text between;
/// `None` when the leading paren closes earlier or never.
fn wrapping_parens(s: &str) -> Option<&str> {
    let mut depth = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return (i == s.len() - 1).then(|| &s[1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parses a query string into a [`JoinQuery`]. Returns the query and the
/// interned attribute names (index = attribute id; parameters intern as
/// `"$name"`, literals by their spelling). Mode prefixes are *not*
/// recognized here — use [`parse_query_with_mode`] for text that may carry
/// `COUNT`/`LIMIT`/`EXISTS`.
pub fn parse_query(input: &str) -> Result<(JoinQuery, Vec<String>)> {
    parse_query_in(input, input)
}

/// The worker behind both entry points: parses `body`, reporting error
/// offsets relative to `full` (the text the caller originally handed in,
/// of which `body` is a suffix once a mode prefix was stripped).
fn parse_query_in(full: &str, body: &str) -> Result<(JoinQuery, Vec<String>)> {
    let (name, body_text) = match body.split_once(":-") {
        Some((head, b)) => {
            let head = head.trim();
            let name = head.split('(').next().unwrap_or("Q").trim();
            (if name.is_empty() { "Q" } else { name }.to_string(), b)
        }
        None => ("Q".to_string(), body),
    };

    let mut attr_names: Vec<String> = Vec::new();
    let mut intern = |ident: &str| -> u32 {
        if let Some(i) = attr_names.iter().position(|n| n == ident) {
            i as u32
        } else {
            attr_names.push(ident.to_string());
            (attr_names.len() - 1) as u32
        }
    };

    let mut atoms = Vec::new();
    let mut rest = body_text.trim();
    while !rest.is_empty() {
        let open = rest.find('(').ok_or_else(|| perr(full, rest, "expected '(' in atom"))?;
        let rel_name = rest[..open].trim_matches([',', ' ', '\n', '\t']).trim();
        if rel_name.is_empty() {
            return Err(perr(full, rest, "atom missing relation name"));
        }
        let close = rest.find(')').ok_or_else(|| perr(full, rest, "unclosed '(' in atom"))?;
        if close < open {
            return Err(perr(full, &rest[close..], "')' before '('"));
        }
        let args = &rest[open + 1..close];
        let mut ids: Vec<u32> = Vec::new();
        let mut terms: Vec<Term> = Vec::new();
        for raw in args.split(',') {
            let tok = raw.trim();
            if let Some(pname) = tok.strip_prefix('$') {
                // `$name` placeholder: interned as the attribute "$name",
                // so every occurrence of one parameter is one attribute.
                if pname.is_empty() || !is_ident(pname) {
                    return Err(perr(full, tok, "bad parameter name after '$'"));
                }
                ids.push(intern(tok));
                terms.push(Term::Param(pname.to_string()));
            } else if !tok.is_empty() && tok.chars().all(|c| c.is_ascii_digit()) {
                // Integer literal: an attribute pinned to this value.
                let v: Value = tok.parse().map_err(|_| {
                    perr(full, tok, "integer literal out of range (max 4294967295)")
                })?;
                ids.push(intern(tok));
                terms.push(Term::Const(v));
            } else if is_ident(tok) {
                let id = intern(tok);
                ids.push(id);
                terms.push(Term::Var(Attr(id)));
            } else {
                return Err(perr(
                    full,
                    if tok.is_empty() { raw } else { tok },
                    "bad attribute identifier",
                ));
            }
        }
        if ids.is_empty() {
            return Err(perr(full, rel_name, "atom with no attributes"));
        }
        let schema = Schema::new(ids.into_iter().map(Attr).collect())?;
        atoms.push(Atom::with_terms(rel_name, schema, terms));
        rest = rest[close + 1..].trim_start_matches([',', ' ', '\n', '\t']);
    }
    if atoms.is_empty() {
        return Err(perr(full, body, "query has no atoms"));
    }

    // Validate the head (if it named attributes): it must bind exactly the
    // body's *variable* attributes — no projection — though naming the
    // constant/parameter attributes too is accepted (their columns are in
    // the result regardless).
    if let Some((head, _)) = body.split_once(":-") {
        if let (Some(open), Some(close)) = (head.find('('), head.find(')')) {
            let mut head_ids: Vec<u32> = Vec::new();
            for raw in head[open + 1..close].split(',') {
                let ident = raw.trim();
                if ident.is_empty() {
                    continue;
                }
                match attr_names.iter().position(|n| n == ident) {
                    Some(i) => head_ids.push(i as u32),
                    None => {
                        return Err(perr(full, ident, "head attribute not bound in body"));
                    }
                }
            }
            head_ids.sort_unstable();
            head_ids.dedup();
            // Which attributes are variables comes from the terms the atom
            // loop just classified — never re-derived from spellings.
            let mut var_ids: Vec<u32> = atoms
                .iter()
                .flat_map(|a| a.terms.iter())
                .filter_map(|t| match t {
                    Term::Var(attr) => Some(attr.0),
                    _ => None,
                })
                .collect();
            var_ids.sort_unstable();
            var_ids.dedup();
            let all_ids: Vec<u32> = (0..attr_names.len() as u32).collect();
            if !head_ids.is_empty() && head_ids != var_ids && head_ids != all_ids {
                return Err(perr(full, head, "head must bind all body variables (no projection)"));
            }
        }
    }

    Ok((JoinQuery::new(name, atoms), attr_names))
}

/// A variable identifier: alphanumeric/underscore, at least one non-digit
/// (an all-digit token is an integer literal).
fn is_ident(tok: &str) -> bool {
    !tok.is_empty()
        && tok.chars().all(|c| c.is_alphanumeric() || c == '_')
        && !tok.chars().all(|c| c.is_ascii_digit())
}

/// Builds a [`Error::Parse`] pointing at `at` — a subslice of `full` — so
/// the error carries the byte offset and the offending token.
fn perr(full: &str, at: &str, message: impl Into<String>) -> Error {
    let offset = (at.as_ptr() as usize)
        .checked_sub(full.as_ptr() as usize)
        .filter(|&o| o <= full.len())
        .unwrap_or(0);
    let token: String = at.trim().chars().take(24).collect();
    Error::Parse { offset, token, message: message.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_running_example() {
        let (q, names) =
            parse_query("Q(a,b,c,d,e) :- R1(a,b,c), R2(a,d), R3(c,d), R4(b,e), R5(c,e)").unwrap();
        assert_eq!(q.name, "Q");
        assert_eq!(q.atoms.len(), 5);
        assert_eq!(names, vec!["a", "b", "c", "d", "e"]);
        assert_eq!(q.atoms[0].schema.arity(), 3);
        assert_eq!(q.num_attrs(), 5);
        // Equivalent to the hand-built workload query.
        assert_eq!(q.hypergraph(), crate::workload::running_example().hypergraph());
    }

    #[test]
    fn headless_form() {
        let (q, names) = parse_query("R1(x,y), R2(y,z)").unwrap();
        assert_eq!(q.name, "Q");
        assert_eq!(names, vec!["x", "y", "z"]);
        assert_eq!(q.atoms[1].name, "R2");
    }

    #[test]
    fn attr_interning_is_first_use_order() {
        let (_, names) = parse_query("E(b,a), F(c,a)").unwrap();
        assert_eq!(names, vec!["b", "a", "c"]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_query("").is_err());
        assert!(parse_query("R1 a,b)").is_err());
        assert!(parse_query("R1(a,b").is_err());
        assert!(parse_query("R1()").is_err());
        assert!(parse_query("R1(a, )").is_err());
        assert!(parse_query("R1(a,a)").is_err()); // duplicate attr in atom
    }

    #[test]
    fn rejects_projection_heads() {
        // head binds fewer attrs than body → projection, unsupported
        assert!(parse_query("Q(a) :- R1(a,b)").is_err());
        // head with unknown attr
        assert!(parse_query("Q(z) :- R1(a,b)").is_err());
        // full head fine
        assert!(parse_query("Q(a,b) :- R1(a,b)").is_ok());
    }

    #[test]
    fn mode_prefixes_parse() {
        let (q, _, m) =
            parse_query_with_mode("COUNT(Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c))").unwrap();
        assert_eq!(m, OutputMode::Count);
        assert_eq!(q.atoms.len(), 3);

        let (_, _, m) = parse_query_with_mode("exists R1(a,b), R2(b,c)").unwrap();
        assert_eq!(m, OutputMode::Exists);

        let (_, _, m) = parse_query_with_mode("LIMIT 10 (R1(a,b), R2(b,c))").unwrap();
        assert_eq!(m, OutputMode::Limit(10));
        let (_, _, m) = parse_query_with_mode("limit 3 R1(a,b)").unwrap();
        assert_eq!(m, OutputMode::Limit(3));

        // no prefix → Rows, and the query is unchanged
        let (q, names, m) = parse_query_with_mode("Q(a,b) :- R1(a,b)").unwrap();
        assert_eq!(m, OutputMode::Rows);
        assert_eq!((q.atoms.len(), names.len()), (1, 2));
    }

    #[test]
    fn mode_prefixes_spell_equivalent_queries() {
        let (plain, _) = parse_query("R1(a,b), R2(b,c), R3(a,c)").unwrap();
        for text in [
            "COUNT(R1(a,b), R2(b,c), R3(a,c))",
            "COUNT R1(a,b), R2(b,c), R3(a,c)",
            "EXISTS(R1(a,b), R2(b,c), R3(a,c))",
            "LIMIT 5 (R1(a,b), R2(b,c), R3(a,c))",
        ] {
            let (q, _, _) = parse_query_with_mode(text).unwrap();
            assert_eq!(q.hypergraph(), plain.hypergraph(), "{text}");
        }
    }

    #[test]
    fn keyword_named_relations_stay_atoms() {
        // `COUNT(a,b)` is a relation named COUNT, not a mode prefix.
        let (q, _, m) = parse_query_with_mode("COUNT(a,b), R2(b,c)").unwrap();
        assert_eq!(m, OutputMode::Rows);
        assert_eq!(q.atoms[0].name, "COUNT");
        // ...same for LIMIT...
        let (q, _, m) = parse_query_with_mode("LIMIT(a,b), R2(b,c)").unwrap();
        assert_eq!(m, OutputMode::Rows);
        assert_eq!(q.atoms[0].name, "LIMIT");
        // ...and names merely *starting* with a keyword never match.
        let (q, _, m) = parse_query_with_mode("EXISTSX(a,b)").unwrap();
        assert_eq!(m, OutputMode::Rows);
        assert_eq!(q.atoms[0].name, "EXISTSX");
    }

    #[test]
    fn explain_prefixes_parse() {
        let (q, _, m, e) =
            parse_query_explain("EXPLAIN R1(a,b), R2(b,c), R3(a,c)").unwrap().unwrap();
        assert_eq!((m, e), (OutputMode::Rows, ExplainMode::Plan));
        assert_eq!(q.atoms.len(), 3);

        // composes with mode prefixes, case-insensitively and wrapped
        let (q, _, m, e) =
            parse_query_explain("explain analyze COUNT(R1(a,b), R2(b,c))").unwrap().unwrap();
        assert_eq!((m, e), (OutputMode::Count, ExplainMode::Analyze));
        assert_eq!(q.atoms.len(), 2);

        let (_, _, m, e) =
            parse_query_explain("EXPLAIN(LIMIT 5 (R1(a,b), R2(b,c)))").unwrap().unwrap();
        assert_eq!((m, e), (OutputMode::Limit(5), ExplainMode::Plan));

        let (_, _, m, e) =
            parse_query_explain("EXPLAIN ANALYZE (EXISTS R1(a,b))").unwrap().unwrap();
        assert_eq!((m, e), (OutputMode::Exists, ExplainMode::Analyze));

        // the explained query spells the same join as the plain text
        let (plain, _) = parse_query("R1(a,b), R2(b,c)").unwrap();
        let (q, _, _, _) = parse_query_explain("EXPLAIN COUNT(R1(a,b), R2(b,c))").unwrap().unwrap();
        assert_eq!(q.atoms, plain.atoms);
    }

    #[test]
    fn explain_named_relations_stay_atoms() {
        // no EXPLAIN keyword at all → None, text is an ordinary query
        assert!(parse_query_explain("COUNT(R1(a,b), R2(b,c))").unwrap().is_none());
        // `EXPLAIN(a,b)` is a relation named EXPLAIN, not a prefix
        assert!(parse_query_explain("EXPLAIN(a,b), R2(b,c)").unwrap().is_none());
        let (q, _, m) = parse_query_with_mode("EXPLAIN(a,b), R2(b,c)").unwrap();
        assert_eq!(m, OutputMode::Rows);
        assert_eq!(q.atoms[0].name, "EXPLAIN");
        // ...and `EXPLAIN ANALYZE(a,b)` explains an atom named ANALYZE
        let (q, _, m, e) = parse_query_explain("EXPLAIN ANALYZE(a,b)").unwrap().unwrap();
        assert_eq!((m, e), (OutputMode::Rows, ExplainMode::Plan));
        assert_eq!(q.atoms[0].name, "ANALYZE");
        // names merely starting with the keyword never match
        assert!(parse_query_explain("EXPLAINX(a,b)").unwrap().is_none());
    }

    #[test]
    fn malformed_explain_reports_offsets_in_the_original_text() {
        // a LIMIT error inside an EXPLAIN body points into the full input
        let err = parse_query_explain("EXPLAIN LIMIT R1(a,b)").unwrap_err();
        match err {
            Error::Parse { offset, message, .. } => {
                assert_eq!(&"EXPLAIN LIMIT R1(a,b)"[offset..offset + 2], "R1");
                assert!(message.contains("tuple count"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // bare EXPLAIN with nothing to explain is an ordinary parse error
        assert!(parse_query_explain("EXPLAIN").is_ok_and(|o| o.is_none()));
        assert!(parse_query_with_mode("EXPLAIN").is_err());
    }

    #[test]
    fn multibyte_text_never_panics() {
        // Regression: keyword matching must never slice inside a multibyte
        // char. Unicode relation names parse exactly as before (no mode
        // prefix), and unparseable unicode text is an error, not a panic
        // in a serving thread.
        for text in ["ΩΩΩ(a,b)", "cØunt(a,b)", "LIMITΩ(a,b)", "Ω(a,b)"] {
            let (q, _, m) = parse_query_with_mode(text).unwrap();
            assert_eq!(m, OutputMode::Rows, "{text}");
            assert_eq!(q.atoms.len(), 1, "{text}");
        }
        assert!(parse_query_with_mode("ΩΩΩΩΩ").is_err(), "no atom, but no panic either");
    }

    #[test]
    fn malformed_mode_prefixes_error() {
        assert!(parse_query_with_mode("LIMIT R1(a,b)").is_err(), "missing count");
        assert!(parse_query_with_mode("COUNT").is_err(), "no query after prefix");
        assert!(parse_query_with_mode("COUNT(R1(a,b)").is_err(), "unbalanced wrapper");
    }

    #[test]
    fn limit_edge_counts_are_pinned_down() {
        // LIMIT 0 is a legal query: Limit(0) mode, empty answer downstream.
        let (q, _, m) = parse_query_with_mode("LIMIT 0 (R1(a,b), R2(b,c))").unwrap();
        assert_eq!(m, OutputMode::Limit(0));
        assert_eq!(q.atoms.len(), 2);
        // A count too large for usize saturates to "all rows" instead of
        // erroring — any limit ≥ the cardinality means the same thing.
        let (_, _, m) = parse_query_with_mode("LIMIT 99999999999999999999 R1(a,b)").unwrap();
        assert_eq!(m, OutputMode::Limit(usize::MAX));
        let (_, _, m) = parse_query_with_mode(&format!("LIMIT {} R1(a,b)", usize::MAX)).unwrap();
        assert_eq!(m, OutputMode::Limit(usize::MAX));
    }

    #[test]
    fn literals_and_params_parse_into_terms() {
        use crate::query::{Bindings, ParamTable};
        let (q, names) = parse_query("Q(b,c) :- R1(5,b), R2(b,c), R3(5,c)").unwrap();
        // "5" interns once, like a variable would.
        assert_eq!(names, vec!["5", "b", "c"]);
        assert_eq!(q.atoms[0].terms[0], Term::Const(5));
        assert_eq!(q.atoms[0].terms[1], Term::Var(Attr(1)));
        assert_eq!(q.const_bindings().unwrap().pairs(), &[(Attr(0), 5)]);
        assert!(q.param_attrs().is_empty());

        let (q, names) = parse_query("R1($v,b), R2(b,$w)").unwrap();
        assert_eq!(names, vec!["$v", "b", "$w"]);
        assert_eq!(q.atoms[0].terms[0], Term::Param("v".into()));
        assert_eq!(q.param_attrs(), vec![("v".to_string(), Attr(0)), ("w".to_string(), Attr(2))]);
        let bound = ParamTable::of(&q).resolve(&Bindings::new().set("v", 1).set("w", 2)).unwrap();
        assert_eq!(bound.pairs(), &[(Attr(0), 1), (Attr(2), 2)]);

        // Repeated parameters share one attribute (equality by definition).
        let (q, _) = parse_query("R1($v,b), R2($v,c)").unwrap();
        assert_eq!(q.param_attrs().len(), 1);
        assert_eq!(q.atoms[0].schema.attrs()[0], q.atoms[1].schema.attrs()[0]);
    }

    #[test]
    fn bound_query_shape_matches_unbound() {
        // A literal position is an ordinary attribute to the planner: the
        // hypergraph of R1(5,b),R2(b,c),R3(5,c) equals R1(a,b),R2(b,c),R3(a,c).
        let (bound, _) = parse_query("R1(5,b), R2(b,c), R3(5,c)").unwrap();
        let (free, _) = parse_query("R1(a,b), R2(b,c), R3(a,c)").unwrap();
        assert_eq!(bound.hypergraph(), free.hypergraph());
    }

    #[test]
    fn mixed_alnum_tokens_stay_variables() {
        // Pre-literal texts like x1/v2 must keep parsing as variables; only
        // all-digit tokens are constants.
        let (q, names) = parse_query("R1(x1,b2), R2(b2,x1)").unwrap();
        assert_eq!(names, vec!["x1", "b2"]);
        assert!(!q.has_bound_terms());
    }

    #[test]
    fn heads_cover_variables_not_constants() {
        // Head binds the variables; the constant column is implicit.
        assert!(parse_query("Q(b,c) :- R1(5,b), R2(b,c)").is_ok());
        // Naming every attribute (incl. the literal) is accepted too.
        assert!(parse_query("Q(5,b,c) :- R1(5,b), R2(b,c)").is_ok());
        // Projection is still rejected.
        assert!(parse_query("Q(b) :- R1(5,b), R2(b,c)").is_err());
        // Params behave like constants for head purposes.
        assert!(parse_query("Q(b,c) :- R1($v,b), R2(b,c)").is_ok());
    }

    #[test]
    fn parse_errors_carry_byte_offsets_and_tokens() {
        let err = parse_query("R1(a,b), R2(b,c").unwrap_err();
        let Error::Parse { offset, token, message } = &err else {
            panic!("expected Error::Parse, got {err:?}")
        };
        assert_eq!(*offset, 9, "offset of the unclosed atom");
        assert!(token.starts_with("R2(b,c"), "token: {token}");
        assert!(message.contains("unclosed"));

        // Offsets are relative to the text handed to the *entry point*,
        // mode prefix included.
        let err = parse_query_with_mode("COUNT(R1(a,b), R2(b,!c))").unwrap_err();
        let Error::Parse { offset, token, .. } = &err else { panic!("{err:?}") };
        assert_eq!(&"COUNT(R1(a,b), R2(b,!c))"[*offset..*offset + 2], "!c");
        assert_eq!(token, "!c");

        // Bad parameter and out-of-range literal point at their tokens.
        let err = parse_query("R1($, b)").unwrap_err();
        assert!(matches!(err, Error::Parse { offset: 3, .. }), "{err:?}");
        let err = parse_query("R1(99999999999, b)").unwrap_err();
        let Error::Parse { message, .. } = &err else { panic!("{err:?}") };
        assert!(message.contains("out of range"));
    }

    #[test]
    fn triangle_matches_workload_builder() {
        let (q, _) = parse_query("Q1(a,b,c) :- R1(a,b), R2(b,c), R3(a,c)").unwrap();
        let built = crate::workload::paper_query(crate::workload::PaperQuery::Q1);
        assert_eq!(q.hypergraph(), built.hypergraph());
    }
}
