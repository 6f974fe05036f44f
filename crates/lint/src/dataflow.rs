//! Interprocedural dataflow rules: `float-order` and `epoch-protocol`.
//!
//! Both rules (and the `state-coverage` rule in [`crate::coverage`],
//! which reuses this module's `Workspace`) work on a whole-workspace
//! call graph built the same way as [`crate::locks`]: every function is
//! found by the item scan, every call site is resolved by name and arity
//! (same-file candidates shadow same-crate, which shadow the rest of
//! the workspace), and facts are propagated across the resolved edges to
//! a fixed point.
//!
//! # `float-order`
//!
//! `f64` addition does not commute bitwise: `(a + b) + c` and
//! `a + (b + c)` can differ in the last ulp, so any order-sensitive
//! reduction whose iteration order is not pinned breaks the flow's
//! bit-identical reproducibility contract. The rule flags, in flow
//! files only:
//!
//! - `.sum()` / `.product()` / `.fold(..)` reductions with `f64`
//!   evidence (an `::<f64>` turbofish, an `f64` in the statement or the
//!   fold seed, or an enclosing function returning `f64`) whose source
//!   statement mentions a hash-typed binding (hash iteration order is
//!   seeded per process), **or** which sit in code reachable from a
//!   `run_indexed(..)`/`spawn(..)` callback — there the reduction runs
//!   on worker threads, and keeping it bit-identical at any thread
//!   count requires a named fixed-order reduction. The fix is to route
//!   the terms through `crp_geom::sum_ordered` (a plain left-to-right
//!   loop whose name states the order contract) over a fixed-order
//!   view, or to annotate why the source order is pinned.
//! - compound `+=`/`-=` accumulation into a shared place (a `*deref`
//!   target or a `.lock()`ed one) textually inside a
//!   `run_indexed(..)`/`spawn(..)` argument list: cross-worker
//!   accumulation order is scheduler-dependent; merge per-worker
//!   results by index instead.
//!
//! # `epoch-protocol`
//!
//! A field declared `// crp-lint: epoch-protected(<field>[,
//! <validator>])` may only be read (in flow files) by functions that
//! call the validator (default `region_touched_since`) themselves, or
//! that are reachable *only* from such functions. This is an
//! order-insensitive approximation of dominance — the pass checks that
//! a validation exists in the function or in every caller, not that it
//! textually precedes the read — which is exactly the protocol the
//! price cache's dynamic oracle checks one execution at a time; the
//! rule checks every call path at once.

use crate::lexer::{lex, Token, TokenKind};
use crate::locks::{count_args, scan_functions, NON_CALLS, STD_METHODS};
use crate::rules::{
    hash_typed_names, item_end_from, matching, test_region_mask, Annotations, Diagnostic, Rule,
};
use std::collections::BTreeMap;

/// Integer types whose appearance in a reduction turbofish proves the
/// reduction is not about floats.
const INT_TYPES: &[&str] = &[
    "u8", "i8", "u16", "i16", "u32", "i32", "u64", "i64", "u128", "i128", "usize", "isize",
];

/// One file of the workspace, lexed and annotated.
pub(crate) struct FileCtx<'a> {
    pub(crate) rel: &'a str,
    pub(crate) flow: bool,
    pub(crate) code: Vec<&'a Token>,
    pub(crate) mask: Vec<bool>,
    pub(crate) ann: Annotations,
    /// Token ranges `(open paren, close paren)` of `run_indexed(..)` /
    /// `spawn(..)` argument lists: code that runs on worker threads.
    pub(crate) par_ranges: Vec<(usize, usize)>,
}

/// A call site inside a function body.
pub(crate) struct Call {
    pub(crate) callee: String,
    pub(crate) arity: usize,
    pub(crate) method_form: bool,
    /// Token index of the callee identifier.
    pub(crate) tok: usize,
}

/// One function definition with its outgoing calls.
pub(crate) struct FnInfo {
    pub(crate) name: String,
    /// Index into [`Workspace::files`].
    pub(crate) file: usize,
    pub(crate) krate: String,
    pub(crate) arity: usize,
    pub(crate) has_self: bool,
    pub(crate) returns_f64: bool,
    /// Token range of the body: `(open_brace, close_brace)`.
    pub(crate) body: (usize, usize),
    pub(crate) calls: Vec<Call>,
}

/// The lexed workspace with its resolved call graph.
pub(crate) struct Workspace<'a> {
    pub(crate) files: Vec<FileCtx<'a>>,
    pub(crate) fns: Vec<FnInfo>,
    /// Per function, per call site: the resolved target indices.
    pub(crate) resolved: Vec<Vec<Vec<usize>>>,
}

impl<'a> Workspace<'a> {
    /// Builds the call graph over `files` (workspace-relative path,
    /// source) with `lexed` being the token stream of each file.
    pub(crate) fn build(files: &'a [(String, String)], lexed: &'a [Vec<Token>]) -> Workspace<'a> {
        let mut ctxs = Vec::with_capacity(files.len());
        let mut fns = Vec::new();
        for (fi, ((rel, _), tokens)) in files.iter().zip(lexed).enumerate() {
            let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
            let mask = test_region_mask(&code);
            let ann = Annotations::parse(tokens);
            let par_ranges = parallel_ranges(&code);
            for sig in scan_functions(&code, &mask) {
                fns.push(FnInfo {
                    name: sig.name,
                    file: fi,
                    krate: crate_of(rel),
                    arity: sig.arity,
                    has_self: sig.has_self,
                    returns_f64: sig.returns_f64,
                    body: sig.body,
                    calls: collect_calls(&code, sig.body),
                });
            }
            ctxs.push(FileCtx {
                rel,
                flow: crate::engine::scope_of(rel).flow,
                code,
                mask,
                ann,
                par_ranges,
            });
        }

        let by_name: BTreeMap<&str, Vec<usize>> = {
            let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for (i, f) in fns.iter().enumerate() {
                m.entry(f.name.as_str()).or_default().push(i);
            }
            m
        };
        let resolved = fns
            .iter()
            .enumerate()
            .map(|(i, f)| {
                f.calls
                    .iter()
                    .map(|c| resolve_call(&fns, &by_name, i, f, c))
                    .collect()
            })
            .collect();
        Workspace {
            files: ctxs,
            fns,
            resolved,
        }
    }

    /// Index of the innermost function of `file` whose body contains
    /// token `tok`.
    pub(crate) fn enclosing_fn(&self, file: usize, tok: usize) -> Option<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.file == file && f.body.0 < tok && tok < f.body.1)
            .max_by_key(|(_, f)| f.body.0)
            .map(|(i, _)| i)
    }

    /// Marks every function reachable from a `run_indexed`/`spawn`
    /// argument list: those run on worker threads.
    pub(crate) fn parallel_reachable(&self) -> Vec<bool> {
        let mut reach = vec![false; self.fns.len()];
        let mut queue = Vec::new();
        for (i, f) in self.fns.iter().enumerate() {
            let ranges = &self.files[f.file].par_ranges;
            for (c, targets) in f.calls.iter().zip(&self.resolved[i]) {
                if ranges.iter().any(|&(o, cl)| o < c.tok && c.tok < cl) {
                    for &t in targets {
                        if !reach[t] {
                            reach[t] = true;
                            queue.push(t);
                        }
                    }
                }
            }
        }
        while let Some(i) = queue.pop() {
            for targets in &self.resolved[i] {
                for &t in targets {
                    if !reach[t] {
                        reach[t] = true;
                        queue.push(t);
                    }
                }
            }
        }
        reach
    }
}

/// `crates/serve/src/x.rs` → `crates/serve`.
fn crate_of(file: &str) -> String {
    file.split('/').take(2).collect::<Vec<_>>().join("/")
}

/// Token ranges of `run_indexed(..)` / `spawn(..)` argument lists.
fn parallel_ranges(code: &[&Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..code.len() {
        if (code[i].is_ident("run_indexed") || code[i].is_ident("spawn"))
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(c) = matching(code, i + 1, '(', ')') {
                out.push((i + 1, c));
            }
        }
    }
    out
}

/// Call sites in a body, skipping nested `fn` items (they are scanned as
/// their own functions).
fn collect_calls(code: &[&Token], body: (usize, usize)) -> Vec<Call> {
    let (open, close) = body;
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = code[i];
        if t.is_ident("fn") && code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Ident) {
            i = item_end_from(code, i);
            continue;
        }
        if t.kind == TokenKind::Ident && code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            let prev_dot = i > 0 && code[i - 1].is_punct('.');
            let std_method = prev_dot && STD_METHODS.contains(&t.text.as_str());
            if !NON_CALLS.contains(&t.text.as_str()) && !std_method {
                let close_p = matching(code, i + 1, '(', ')').unwrap_or(i + 1);
                out.push(Call {
                    callee: t.text.clone(),
                    arity: count_args(code, i + 1, close_p),
                    method_form: prev_dot,
                    tok: i,
                });
            }
        }
        i += 1;
    }
    out
}

/// Same resolution policy as [`crate::locks`]: name + arity (with the
/// `Type::method(recv, ..)` self adjustment), same-file over same-crate
/// over workspace, never the caller itself.
fn resolve_call(
    fns: &[FnInfo],
    by_name: &BTreeMap<&str, Vec<usize>>,
    caller: usize,
    f: &FnInfo,
    c: &Call,
) -> Vec<usize> {
    let Some(cands) = by_name.get(c.callee.as_str()) else {
        return Vec::new();
    };
    let arity_ok =
        |t: &FnInfo| t.arity == c.arity || (!c.method_form && t.has_self && t.arity + 1 == c.arity);
    let matches: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&t| arity_ok(&fns[t]))
        .collect();
    let pick = |pred: &dyn Fn(&FnInfo) -> bool| -> Vec<usize> {
        matches.iter().copied().filter(|&t| pred(&fns[t])).collect()
    };
    let scoped = {
        let same_file = pick(&|t| t.file == f.file);
        if same_file.is_empty() {
            let same_crate = pick(&|t| t.krate == f.krate);
            if same_crate.is_empty() {
                matches
            } else {
                same_crate
            }
        } else {
            same_file
        }
    };
    scoped.into_iter().filter(|&t| t != caller).collect()
}

/// Runs the `float-order` and `epoch-protocol` rules over `files`
/// (workspace-relative path, source text), returning the unsuppressed
/// diagnostics sorted by file and line.
#[must_use]
pub fn analyze(files: &[(String, String)]) -> Vec<Diagnostic> {
    let lexed: Vec<Vec<Token>> = files.iter().map(|(_, src)| lex(src)).collect();
    let ws = Workspace::build(files, &lexed);
    let mut out = Vec::new();
    check_float_order(&ws, &mut out);
    check_epoch_protocol(&ws, &mut out);
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

// ---------------------------------------------------------------------
// float-order
// ---------------------------------------------------------------------

fn check_float_order(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    let parallel = ws.parallel_reachable();
    for (fi, fc) in ws.files.iter().enumerate() {
        if !fc.flow {
            continue;
        }
        let hash_names = hash_typed_names(&fc.code);
        let code = &fc.code;
        for i in 1..code.len() {
            if fc.mask[i] {
                continue;
            }
            check_reduction_site(ws, &parallel, fi, &hash_names, i, out);
            check_shared_accumulation(fc, i, out);
        }
    }
}

/// A `.sum()` / `.product()` / `.fold(..)` with f64 evidence whose
/// source is hash-ordered or parallel-reachable.
fn check_reduction_site(
    ws: &Workspace<'_>,
    parallel: &[bool],
    fi: usize,
    hash_names: &[String],
    i: usize,
    out: &mut Vec<Diagnostic>,
) {
    let fc = &ws.files[fi];
    let code = &fc.code;
    let t = code[i];
    if !(t.kind == TokenKind::Ident && matches!(t.text.as_str(), "sum" | "product" | "fold")) {
        return;
    }
    if !code[i - 1].is_punct('.') {
        return;
    }
    // Optional `::<T>` turbofish between the method name and `(`.
    let mut j = i + 1;
    let mut turbo: Option<(usize, usize)> = None;
    if code.get(j).is_some_and(|n| n.is_punct(':'))
        && code.get(j + 1).is_some_and(|n| n.is_punct(':'))
        && code.get(j + 2).is_some_and(|n| n.is_punct('<'))
    {
        let Some(cl) = matching(code, j + 2, '<', '>') else {
            return;
        };
        turbo = Some((j + 2, cl));
        j = cl + 1;
    }
    if !code.get(j).is_some_and(|n| n.is_punct('(')) {
        return;
    }
    let args_open = j;
    let args_close = matching(code, args_open, '(', ')').unwrap_or(args_open);

    // f64 evidence. An integer turbofish is proof of the opposite.
    let enclosing = ws.enclosing_fn(fi, i);
    let is_f64 = if let Some((o, c)) = turbo {
        if code[o + 1..c].iter().any(|t| t.is_ident("f64")) {
            true
        } else if code[o + 1..c]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && INT_TYPES.contains(&t.text.as_str()))
        {
            return;
        } else {
            false
        }
    } else {
        false
    };
    let stmt_start = statement_start(code, i);
    let window_f64 = code[stmt_start..args_close.min(code.len())]
        .iter()
        .any(|t| {
            t.is_ident("f64")
                || (t.kind == TokenKind::Number && (t.text.contains('.') || t.text.contains("f64")))
        });
    let fn_f64 = t.text != "fold" && enclosing.is_some_and(|e| ws.fns[e].returns_f64);
    if !(is_f64 || window_f64 || fn_f64) {
        return;
    }

    // Order sensitivity: hash-ordered source, or parallel execution.
    let hash_src = code[stmt_start..i]
        .iter()
        .find(|t| t.kind == TokenKind::Ident && hash_names.contains(&t.text));
    let in_par_range = fc.par_ranges.iter().any(|&(o, c)| o < i && i < c);
    let par_reach = enclosing.is_some_and(|e| parallel[e]);

    let why = if let Some(h) = hash_src {
        format!(
            "iterates the hash-ordered binding `{}` (iteration order is \
             seeded per process)",
            h.text
        )
    } else if in_par_range || par_reach {
        "runs on `run_indexed`/`spawn` worker threads (reachable from a \
         parallel callback)"
            .to_string()
    } else {
        return;
    };
    let line = t.line;
    if fc.ann.allowed(Rule::FloatOrder, line) {
        return;
    }
    out.push(Diagnostic {
        rule: Rule::FloatOrder,
        file: fc.rel.to_string(),
        line,
        message: format!(
            "order-sensitive f64 reduction `.{}(..)` {why}; f64 addition \
             does not commute bitwise — route the terms through \
             `crp_geom::sum_ordered` over a fixed-order source (BTree, \
             sorted, or indexed), or annotate why the order is pinned",
            t.text
        ),
    });
}

/// `+=`/`-=` into a shared place (`*deref` or `.lock()`ed) textually
/// inside a parallel argument list.
fn check_shared_accumulation(fc: &FileCtx<'_>, i: usize, out: &mut Vec<Diagnostic>) {
    let code = &fc.code;
    if !(code[i].is_punct('=')
        && (code[i - 1].is_punct('+') || code[i - 1].is_punct('-'))
        && i >= 2
        // `x + -1 = ..` cannot occur; but exclude `==`, `>=`, `<=` chains.
        && !code[i - 2].is_punct('='))
    {
        return;
    }
    if !fc.par_ranges.iter().any(|&(o, c)| o < i && i < c) {
        return;
    }
    let stmt_start = statement_start(code, i - 1);
    let lhs = &code[stmt_start..i - 1];
    let shared = lhs.first().is_some_and(|t| t.is_punct('*'))
        || lhs
            .windows(2)
            .any(|w| w[0].is_punct('.') && w[1].is_ident("lock"));
    if !shared {
        return;
    }
    let line = code[i].line;
    if fc.ann.allowed(Rule::FloatOrder, line) {
        return;
    }
    out.push(Diagnostic {
        rule: Rule::FloatOrder,
        file: fc.rel.to_string(),
        line,
        message: format!(
            "`{}=` into a shared accumulator inside a `run_indexed`/`spawn` \
             callback: cross-worker accumulation order is \
             scheduler-dependent — collect per-worker results and merge \
             them by index instead, or annotate why order cannot reach a \
             result",
            code[i - 1].text
        ),
    });
}

/// Token index where the statement containing `i` starts (just past the
/// previous `;`, `{`, or `}`).
fn statement_start(code: &[&Token], i: usize) -> usize {
    let mut j = i;
    while j > 0 {
        let t = code[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    j
}

// ---------------------------------------------------------------------
// epoch-protocol
// ---------------------------------------------------------------------

fn check_epoch_protocol(ws: &Workspace<'_>, out: &mut Vec<Diagnostic>) {
    // Directives are global: declared next to the field, enforced on
    // every flow file.
    let directives: Vec<(String, String)> = {
        let mut v: Vec<(String, String)> = ws
            .files
            .iter()
            .flat_map(|f| &f.ann.epochs)
            .map(|e| (e.field.clone(), e.validator.clone()))
            .collect();
        v.sort();
        v.dedup();
        v
    };
    for (field, validator) in &directives {
        let protected = protected_fns(ws, validator);
        for (fi, fc) in ws.files.iter().enumerate() {
            if !fc.flow {
                continue;
            }
            let code = &fc.code;
            for i in 1..code.len() {
                if fc.mask[i] || !code[i].is_ident(field) || !code[i - 1].is_punct('.') {
                    continue;
                }
                // `.field(` is a method call; `.field = v` a plain write
                // (`==` stays a read).
                if code.get(i + 1).is_some_and(|n| n.is_punct('(')) {
                    continue;
                }
                if code.get(i + 1).is_some_and(|n| n.is_punct('='))
                    && !code.get(i + 2).is_some_and(|n| n.is_punct('='))
                {
                    continue;
                }
                let ok = ws.enclosing_fn(fi, i).is_some_and(|e| protected[e]);
                if ok {
                    continue;
                }
                let line = code[i].line;
                if fc.ann.allowed(Rule::EpochProtocol, line) {
                    continue;
                }
                out.push(Diagnostic {
                    rule: Rule::EpochProtocol,
                    file: fc.rel.to_string(),
                    line,
                    message: format!(
                        "read of epoch-protected field `.{field}` without a \
                         `{validator}(..)` validation in this function or in \
                         every caller; a stale entry can survive a region \
                         mutation — validate the epoch first, or annotate \
                         why staleness is impossible here"
                    ),
                });
            }
        }
    }
}

/// Functions protected for `validator`: they call it directly, or every
/// resolved caller is protected (and there is at least one).
fn protected_fns(ws: &Workspace<'_>, validator: &str) -> Vec<bool> {
    let mut prot: Vec<bool> = ws
        .fns
        .iter()
        .map(|f| {
            let code = &ws.files[f.file].code;
            (f.body.0 + 1..f.body.1).any(|k| {
                code[k].is_ident(validator) && code.get(k + 1).is_some_and(|n| n.is_punct('('))
            })
        })
        .collect();
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); ws.fns.len()];
    for (i, targets_per_call) in ws.resolved.iter().enumerate() {
        for targets in targets_per_call {
            for &t in targets {
                if !callers[t].contains(&i) {
                    callers[t].push(i);
                }
            }
        }
    }
    loop {
        let mut changed = false;
        for i in 0..prot.len() {
            if !prot[i] && !callers[i].is_empty() && callers[i].iter().all(|&c| prot[c]) {
                prot[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    prot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        analyze(&[("crates/core/src/t.rs".to_string(), src.to_string())])
    }

    #[test]
    fn hash_sourced_f64_sum_is_flagged() {
        let src = "
            fn f(m: &HashMap<u32, f64>) -> f64 {
                m.values().copied().sum::<f64>()
            }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::FloatOrder);
    }

    #[test]
    fn integer_turbofish_is_exempt() {
        let src = "
            fn f(m: &HashMap<u32, u64>) -> u64 {
                m.values().copied().sum::<u64>()
            }
        ";
        assert!(run(src).is_empty());
    }

    #[test]
    fn parallel_reachable_sum_is_flagged() {
        let src = "
            fn price(xs: &[f64]) -> f64 { xs.iter().copied().sum() }
            fn drive(xs: &[f64]) {
                run_indexed(4, 2, || (), |_, _| { let _ = price(xs); });
            }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("worker threads"), "{}", d[0].message);
    }

    #[test]
    fn serial_slice_sum_is_clean() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().copied().sum() }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn epoch_read_without_validation_is_flagged() {
        let src = "
            // crp-lint: epoch-protected(price)
            struct Entry { price: f64 }
            fn bad(e: &Entry) -> f64 { e.price }
            fn good(e: &Entry, grid: &G, lo: u64) -> Option<f64> {
                if grid.region_touched_since(lo) { return None; }
                Some(e.price)
            }
        ";
        let d = run(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::EpochProtocol);
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn epoch_read_protected_through_all_callers() {
        let src = "
            // crp-lint: epoch-protected(price)
            struct Entry { price: f64 }
            fn leaf(e: &Entry) -> f64 { e.price }
            fn caller(e: &Entry, grid: &G, lo: u64) -> f64 {
                let _ = grid.region_touched_since(lo);
                leaf(e)
            }
        ";
        assert!(run(src).is_empty());
    }
}
