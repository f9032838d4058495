//! A seeded, deterministic mutation fuzzer over the query text front door:
//! `parse_query_explain`, `parse_query_with_mode` and `ParamTable::resolve`
//! must answer every input with `Ok` or a typed error, never a panic.
//!
//! The corpus is the parser's own test texts and the paper's queries. Each
//! case mutates one of them by byte deletes, inserts, duplications, swaps
//! and truncation, and may wrap it in mode prefixes (nested, unbalanced,
//! `LIMIT` counts past `usize::MAX`, `EXPLAIN ANALYZE`). Every query that
//! parses is then bound with random `Bindings`: unknown names, missing
//! names, `u32::MAX` values. Every run draws the same cases from the same
//! seeds, so a failure — which names the seed, the case and the text —
//! replays by running the test again.

use adj_query::{
    paper_query, parse_query, parse_query_explain, parse_query_with_mode, Bindings, JoinQuery,
    PaperQuery, ParamTable,
};
use adj_relational::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The generator seeds, and the mutated cases drawn from each: a few
/// thousand in all, well under two seconds of a debug build.
const SEEDS: [u64; 2] = [0xAD1_F022, 0xBEEF];
const CASES: usize = 2000;

/// SplitMix64: a tiny deterministic generator, so a seed names a run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The parser's test texts, plus texts that lean on every term kind.
const TEXTS: &[&str] = &[
    "Q(a,b,c,d,e) :- R1(a,b,c), R2(a,d), R3(c,d), R4(b,e), R5(c,e)",
    "R1(x,y), R2(y,z)",
    "E(b,a), F(c,a)",
    "Q(a) :- R1(a,b)",
    "Q(a,b) :- R1(a,b)",
    "COUNT(Q(a,b,c) :- R1(a,b), R2(b,c), R3(a,c))",
    "exists R1(a,b), R2(b,c)",
    "LIMIT 10 (R1(a,b), R2(b,c))",
    "limit 3 R1(a,b)",
    "COUNT R1(a,b), R2(b,c), R3(a,c)",
    "COUNT(a,b), R2(b,c)",
    "LIMIT(a,b), R2(b,c)",
    "EXISTSX(a,b)",
    "EXPLAIN R1(a,b), R2(b,c), R3(a,c)",
    "explain analyze COUNT(R1(a,b), R2(b,c))",
    "EXPLAIN(LIMIT 5 (R1(a,b), R2(b,c)))",
    "EXPLAIN ANALYZE (EXISTS R1(a,b))",
    "EXPLAIN ANALYZE(a,b)",
    "EXPLAIN LIMIT R1(a,b)",
    "ΩΩΩ(a,b)",
    "cØunt(a,b)",
    "LIMITΩ(a,b)",
    "LIMIT 0 (R1(a,b), R2(b,c))",
    "Q(b,c) :- R1(5,b), R2(b,c), R3(5,c)",
    "R1($v,b), R2(b,$w)",
    "R1($v,b), R2($v,c)",
    "Q(b,c) :- R1($v,b), R2(b,c), R3($v,c)",
    "Q(5,b,c) :- R1(5,b), R2(b,c)",
    "R1(x1,b2), R2(b2,x1)",
    "R1(a,b), R2(b,c",
    "COUNT(R1(a,b), R2(b,!c))",
    "R1($, b)",
    "R1(99999999999, b)",
    "R1(7,$v), R2($v,$w), R3($w,7)",
];

/// Fragments the insert mutation splices in.
const FRAGMENTS: &[&str] = &[
    "(",
    ")",
    ",",
    "$",
    ":-",
    " ",
    "0",
    "7",
    "4294967295",
    "4294967296",
    "a",
    "R9",
    "Ω",
    "é",
    "COUNT(",
    "EXISTS ",
    "LIMIT ",
    "LIMIT 5 (",
    "EXPLAIN ",
    "ANALYZE ",
    "$v",
    "$w",
    "\u{0}",
    "\n",
];

/// Prefixes a case may wrap its text in; some never close.
fn wrap(rng: &mut Rng, text: String) -> String {
    match rng.below(9) {
        0 => format!("COUNT({text})"),
        1 => format!("{}{text}", "COUNT(".repeat(1 + rng.below(40))),
        2 => format!("LIMIT {} ({text})", rng.next()),
        3 => format!("LIMIT 18446744073709551616{} ({text}", "9".repeat(rng.below(30))),
        4 => format!("{}{text}", "LIMIT 3 (".repeat(1 + rng.below(20))),
        5 => format!("EXPLAIN ANALYZE {text}"),
        6 => format!("EXPLAIN (ANALYZE (COUNT ({text}))){}", ")".repeat(rng.below(3))),
        7 => format!("explain explain analyze analyze {text}"),
        _ => format!("EXISTS ({text}"),
    }
}

/// One to four byte-level mutations of `text`, read back as (lossy) UTF-8.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => {
                let fragment = rng.pick(FRAGMENTS).as_bytes();
                bytes.splice(at..at, fragment.iter().copied());
            }
            2 if at < bytes.len() => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            3 if bytes.len() > 1 => {
                let other = rng.below(bytes.len());
                let at = at.min(bytes.len() - 1);
                bytes.swap(at, other);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The paper's queries as text, with and without parameters and literals.
fn paper_texts() -> Vec<String> {
    let render = |q: &JoinQuery, term: &dyn Fn(u32) -> String| {
        let atoms: Vec<String> = q
            .atoms
            .iter()
            .map(|a| {
                let terms: Vec<String> = a.schema.attrs().iter().map(|x| term(x.0)).collect();
                format!("{}({})", a.name, terms.join(","))
            })
            .collect();
        atoms.join(", ")
    };
    let all = [
        PaperQuery::Q1,
        PaperQuery::Q2,
        PaperQuery::Q3,
        PaperQuery::Q4,
        PaperQuery::Q5,
        PaperQuery::Q6,
        PaperQuery::Q7,
        PaperQuery::Q8,
    ];
    let mut texts = Vec::new();
    for pq in all {
        let q = paper_query(pq);
        texts.push(render(&q, &|x| format!("x{x}")));
        texts.push(render(&q, &|x| if x == 0 { "$v".into() } else { format!("x{x}") }));
        texts.push(render(&q, &|x| if x == 1 { "3".into() } else { format!("x{x}") }));
    }
    texts
}

/// Random bindings for `q`: some of its parameters (maybe none, maybe all),
/// maybe strays, values from the edges of the domain.
fn bindings(rng: &mut Rng, q: &JoinQuery) -> Bindings {
    let table = ParamTable::of(q);
    let mut b = Bindings::new();
    for (name, _) in table.params() {
        if rng.below(4) != 0 {
            let any = rng.next() as u32;
            b = b.set(name, *rng.pick(&[0, 1, 7, u32::MAX, any]));
        }
    }
    if rng.below(3) == 0 {
        let stray = *rng.pick(&["zz", "v", "$w", "", "$", "Ω", "a", "x1"]);
        b = b.set(stray, u32::MAX);
    }
    b
}

/// Runs `f` on `text`; a panic fails the test with the replay line.
fn no_panic<T>(seed: u64, case: usize, what: &str, text: &str, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| {
        let shown: String = text.chars().take(400).collect();
        panic!("seed {seed:#x} case {case}: {what} panicked on {shown:?}")
    })
}

/// Parses `text` through every entry point and binds what parses.
fn check(rng: &mut Rng, seed: u64, case: usize, text: &str) -> bool {
    no_panic(seed, case, "parse_query_explain", text, || parse_query_explain(text).map(|_| ()))
        .ok();
    no_panic(seed, case, "parse_query", text, || parse_query(text).map(|_| ())).ok();
    let parsed =
        no_panic(seed, case, "parse_query_with_mode", text, || parse_query_with_mode(text));
    let Ok((q, _, _)) = parsed else { return false };
    for _ in 0..3 {
        let b = bindings(rng, &q);
        let resolved =
            no_panic(seed, case, "ParamTable::resolve", text, || ParamTable::of(&q).resolve(&b));
        assert!(
            matches!(
                resolved,
                Ok(_) | Err(Error::UnboundParam { .. } | Error::UnknownParam { .. })
            ),
            "seed {seed:#x} case {case}: resolve({b:?}) on {text:?} gave {resolved:?}"
        );
    }
    true
}

#[test]
fn parser_and_bind_never_panic() {
    for seed in SEEDS {
        fuzz(seed);
    }
}

/// One seed's run: the fixed edge cases, then `CASES` mutated texts.
fn fuzz(seed: u64) {
    let mut rng = Rng(seed);
    let mut corpus: Vec<String> = TEXTS.iter().map(|t| t.to_string()).collect();
    corpus.extend(paper_texts());

    // Fixed edge cases first: every one is checked on every seed.
    let wide: Vec<String> =
        (0..10_000).map(|i| format!("R{i}(a{},a{})", i % 15, i % 15 + 1)).collect();
    let chain: Vec<String> = (0..10_000).map(|i| format!("R{i}(a{i},a{})", i + 1)).collect();
    let edges = [
        "$".to_string(),
        "R1($)".into(),
        "R1(a,$)".into(),
        "(".repeat(500),
        ")".repeat(500),
        format!("{}R1(a,b)", "COUNT(".repeat(300)),
        format!("{}R1(a,b){}", "COUNT(".repeat(300), ")".repeat(300)),
        format!("LIMIT {}0 (R1(a,b))", usize::MAX),
        "LIMIT 99999999999999999999999999999999999999 R1(a,b)".into(),
        "EXPLAIN ANALYZE".into(),
        "EXPLAIN ANALYZE EXPLAIN ANALYZE R1(a,b)".into(),
        "ΩΩΩΩ(ñ,ü), 𝔸(ü,ñ)".into(),
        wide.join(", "),
        chain.join(", "),
    ];
    for (case, text) in edges.iter().enumerate() {
        check(&mut rng, seed, case, text);
    }
    let (q, names) =
        parse_query(&edges[edges.len() - 2]).expect("a 10k-atom query over 16 attributes");
    assert_eq!((q.atoms.len(), names.len()), (10_000, 16));

    let mut parsed = 0;
    for case in 0..CASES {
        let base = rng.pick(&corpus).clone();
        let mut text = mutate(&mut rng, &base);
        if rng.below(4) == 0 {
            text = wrap(&mut rng, text);
        }
        parsed += usize::from(check(&mut rng, seed, edges.len() + case, &text));
    }
    // The mutations keep enough texts parseable for binding to be exercised.
    assert!(parsed > CASES / 20, "only {parsed} of {CASES} mutated texts parsed");
}
