//! The rule catalog.
//!
//! Each rule is a pure function from a lexed file (plus its repo-relative
//! path) to findings. Scope — which files a rule even looks at — lives
//! here too, so the catalog in DESIGN.md §"Concurrency model" and this
//! file are the same list in two notations.

use crate::lexer::{seq_matches, Lexed, Tok, TokKind};

/// One violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id, e.g. `std-sync`.
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

/// All rule ids, for allowlist validation.
pub const RULES: &[&str] = &[
    "std-sync",
    "float-partial-cmp",
    "relaxed-ordering",
    "wall-clock-in-det",
    "unwrap-in-request-path",
    "signal-handler-safety",
    "deployed-mutation",
];

/// Crates whose scheduling decisions must be reproducible from a seed:
/// no wall clocks, no OS entropy.
const DETERMINISTIC_PREFIXES: &[&str] = &[
    "crates/evo/src/",
    "crates/schedcore/src/",
    "crates/simulator/src/",
    "crates/dlperf/src/",
];

/// Crates where a float comparison is a *selection* decision (scoring,
/// ranking, victim choice) and must therefore be total.
const SELECTION_PREFIXES: &[&str] = &[
    "crates/evo/src/",
    "crates/ones/src/",
    "crates/baselines/src/",
    "crates/schedcore/src/",
];

/// Daemon files on the request path: a panic here kills a connection
/// handler and, with it, the client's request. `core.rs` is included
/// because the core thread holds the shared-state write lock — a panic
/// there poisons every handler's read.
const REQUEST_PATH_FILES: &[&str] = &[
    "crates/oned/src/server.rs",
    "crates/oned/src/http.rs",
    "crates/oned/src/api.rs",
    "crates/oned/src/core.rs",
];

/// The one module allowed to mutate a deployed [`Schedule`] directly:
/// everything else must go through the reconciler's typed operations.
const RECONCILER_FILE: &str = "crates/schedcore/src/reconcile.rs";

/// Runs every applicable rule over one file.
pub fn check_file(path: &str, lx: &Lexed) -> Vec<Finding> {
    let mut out = Vec::new();
    let test_ranges = test_regions(&lx.toks);
    let in_test =
        |idx: usize| -> bool { test_ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&idx)) };

    rule_std_sync(path, lx, &mut out);
    rule_float_partial_cmp(path, lx, &mut out);
    rule_relaxed_ordering(path, lx, &mut out);
    rule_wall_clock(path, lx, &in_test, &mut out);
    rule_unwrap_request_path(path, lx, &in_test, &mut out);
    rule_signal_handler(path, lx, &mut out);
    rule_deployed_mutation(path, lx, &in_test, &mut out);
    out
}

// ---------------------------------------------------------------------
// std-sync
// ---------------------------------------------------------------------

fn rule_std_sync(path: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    // The facade itself is the one place allowed to say `std::sync`.
    if path.starts_with("crates/sync/") {
        return;
    }
    for (i, t) in lx.toks.iter().enumerate() {
        if t.text == "std" && seq_matches(&lx.toks, i, &["std", "::", "sync"]) {
            out.push(Finding {
                rule: "std-sync",
                path: path.to_string(),
                line: t.line,
                msg: "use ones_sync (the facade swaps in the loom shim under \
                      --cfg ones_loom); std::sync types are invisible to the \
                      model checker"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// float-partial-cmp
// ---------------------------------------------------------------------

fn rule_float_partial_cmp(path: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    if !SELECTION_PREFIXES.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for t in &lx.toks {
        if t.kind == TokKind::Ident && t.text == "partial_cmp" {
            out.push(Finding {
                rule: "float-partial-cmp",
                path: path.to_string(),
                line: t.line,
                msg: "selection/scoring comparisons must use total_cmp: \
                      partial_cmp returns None on NaN, and the usual \
                      .unwrap()/.unwrap_or fallbacks either panic the \
                      scheduler or silently bias the ranking"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// relaxed-ordering
// ---------------------------------------------------------------------

/// How far above the use site a `relaxed:` justification comment may sit.
const RELAXED_COMMENT_WINDOW: u32 = 3;

fn rule_relaxed_ordering(path: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    for (i, t) in lx.toks.iter().enumerate() {
        if t.text == "Ordering" && seq_matches(&lx.toks, i, &["Ordering", "::", "Relaxed"]) {
            let lo = t.line.saturating_sub(RELAXED_COMMENT_WINDOW);
            if !lx.comment_in_range_contains(lo, t.line, "relaxed:") {
                out.push(Finding {
                    rule: "relaxed-ordering",
                    path: path.to_string(),
                    line: t.line,
                    msg: "Ordering::Relaxed needs a `// relaxed: <why>` \
                          justification on the same or a nearby preceding \
                          line (or use a stronger ordering)"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// wall-clock-in-det
// ---------------------------------------------------------------------

fn rule_wall_clock(
    path: &str,
    lx: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if !DETERMINISTIC_PREFIXES.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for (i, t) in lx.toks.iter().enumerate() {
        if in_test(i) {
            continue;
        }
        let hit = (t.text == "Instant" && seq_matches(&lx.toks, i, &["Instant", "::", "now"]))
            || (t.text == "SystemTime" && seq_matches(&lx.toks, i, &["SystemTime", "::", "now"]))
            || (t.kind == TokKind::Ident && t.text == "thread_rng");
        if hit {
            out.push(Finding {
                rule: "wall-clock-in-det",
                path: path.to_string(),
                line: t.line,
                msg: format!(
                    "`{}` in a deterministic crate: scheduling decisions must \
                     replay bit-identically from (trace, seed); take time from \
                     the simulation clock and randomness from the seeded rng",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// unwrap-in-request-path
// ---------------------------------------------------------------------

fn rule_unwrap_request_path(
    path: &str,
    lx: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if !REQUEST_PATH_FILES.contains(&path) {
        return;
    }
    for (i, t) in lx.toks.iter().enumerate() {
        if t.text != "." || in_test(i + 1) {
            continue;
        }
        let Some(next) = lx.toks.get(i + 1) else {
            continue;
        };
        if next.kind == TokKind::Ident && (next.text == "unwrap" || next.text == "expect") {
            out.push(Finding {
                rule: "unwrap-in-request-path",
                path: path.to_string(),
                line: next.line,
                msg: format!(
                    ".{}() on the daemon request path: a panic here kills the \
                     connection handler mid-request and can poison shared \
                     locks; map the error to an HTTP status instead",
                    next.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// signal-handler-safety
// ---------------------------------------------------------------------

/// Identifiers permitted inside a registered signal handler's body:
/// atomic operations and memory-ordering names only. Everything else —
/// allocation, locks, formatting, I/O — is not async-signal-safe.
const SIGNAL_SAFE_IDENTS: &[&str] = &[
    "store",
    "load",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "true",
    "false",
    "Ordering",
    "SeqCst",
    "AcqRel",
    "Acquire",
    "Release",
    "Relaxed",
];

fn rule_signal_handler(path: &str, lx: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lx.toks;

    // Pass 1: names passed as arguments to a `signal(…)` call. Skip
    // SCREAMING_CASE idents (the signal-number constants).
    let mut handlers: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].text == "signal"
            && toks.get(i + 1).is_some_and(|t| t.text == "(")
            && toks.get(i.wrapping_sub(1)).is_none_or(|t| t.text != "fn")
        {
            let mut depth = 0usize;
            for t in &toks[i + 1..] {
                match t.text.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {
                        if t.kind == TokKind::Ident
                            && t.text.chars().any(|c| c.is_lowercase())
                            && !handlers.contains(&t.text)
                        {
                            handlers.push(t.text.clone());
                        }
                    }
                }
            }
        }
    }
    if handlers.is_empty() {
        return;
    }

    // Pass 2: audit the body of every `extern "C" fn <handler>`.
    for i in 0..toks.len() {
        if toks[i].text != "fn" {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if !handlers.contains(&name.text) {
            continue;
        }
        // Find the opening brace of the body, then brace-match.
        let Some(open) = toks[i..].iter().position(|t| t.text == "{").map(|k| i + k) else {
            continue;
        };
        let mut depth = 0usize;
        for t in &toks[open..] {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    let ok = t.kind != TokKind::Ident
                        || SIGNAL_SAFE_IDENTS.contains(&t.text.as_str())
                        || t.text.starts_with('_')
                        || t.text.chars().all(|c| !c.is_lowercase());
                    if !ok {
                        out.push(Finding {
                            rule: "signal-handler-safety",
                            path: path.to_string(),
                            line: t.line,
                            msg: format!(
                                "`{}` inside signal handler `{}`: only atomic \
                                 stores/loads on pre-existing statics are \
                                 async-signal-safe (no allocation, locks, \
                                 formatting or I/O)",
                                t.text, name.text
                            ),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// deployed-mutation
// ---------------------------------------------------------------------

/// Mutating [`Schedule`] methods; calling one on a binding or field named
/// `deployed` bypasses the reconciliation layer.
const SCHEDULE_MUTATORS: &[&str] = &["assign", "evict", "clear"];

fn rule_deployed_mutation(
    path: &str,
    lx: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    if !path.starts_with("crates/") || !path.contains("/src/") || path == RECONCILER_FILE {
        return;
    }
    for (i, t) in lx.toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "deployed" || in_test(i) {
            continue;
        }
        // `deployed.assign(…)` / `.evict(…)` / `.clear(…)`.
        let mutating_call = lx.toks.get(i + 1).is_some_and(|d| d.text == ".")
            && lx.toks.get(i + 2).is_some_and(|m| {
                m.kind == TokKind::Ident && SCHEDULE_MUTATORS.contains(&m.text.as_str())
            });
        // `deployed = …` — plain assignment, not `==` and not a `let`
        // binding that merely *reads* the deployed schedule.
        let is_let_binding = i > 0
            && lx
                .toks
                .get(i - 1)
                .is_some_and(|p| p.text == "let" || p.text == "mut");
        let assignment = !is_let_binding
            && lx.toks.get(i + 1).is_some_and(|e| e.text == "=")
            && lx.toks.get(i + 2).is_none_or(|n| n.text != "=");
        if mutating_call || assignment {
            out.push(Finding {
                rule: "deployed-mutation",
                path: path.to_string(),
                line: t.line,
                msg: "the deployed Schedule may only change through the \
                      reconciler (ones_schedcore::reconcile): plan typed \
                      ScalingOps and commit them, so lifecycle phases, \
                      scaling costs and persisted recovery state stay \
                      consistent with what is actually running"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// #[cfg(test)] / #[test] region detection
// ---------------------------------------------------------------------

/// Token-index ranges covered by `#[cfg(test)]`-gated items or `#[test]`
/// functions. Used to exempt test code from runtime-path rules.
fn test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[") {
            // Collect the attribute tokens up to the matching `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut is_test_attr = false;
            let mut saw_cfg = false;
            let mut saw_not = false;
            while j < toks.len() && depth > 0 {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "cfg" => saw_cfg = true,
                    "not" => saw_not = true,
                    "test" => is_test_attr = true,
                    _ => {}
                }
                j += 1;
            }
            // `#[test]` alone, or `test` inside a `#[cfg(…)]` — but
            // `#[cfg(not(test))]` gates *production* code, keep linting it.
            let bare_test = is_test_attr && !saw_cfg && j - i <= 4;
            if (saw_cfg && is_test_attr && !saw_not) || bare_test {
                // Skip any further attributes, then brace-match the item.
                let mut k = j;
                while toks.get(k).is_some_and(|t| t.text == "#")
                    && toks.get(k + 1).is_some_and(|t| t.text == "[")
                {
                    let mut d = 1usize;
                    k += 2;
                    while k < toks.len() && d > 0 {
                        match toks[k].text.as_str() {
                            "[" => d += 1,
                            "]" => d -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // A gated field, statement or `use` ends at its own `,`,
                // `;` or closing `}`; only a braced item spans a block.
                let mut nest = 0usize;
                let stop = toks[k..].iter().position(|t| {
                    match t.text.as_str() {
                        "(" | "[" => nest += 1,
                        ")" | "]" => nest = nest.saturating_sub(1),
                        "{" => return true,
                        "," | ";" | "}" => return nest == 0,
                        _ => {}
                    }
                    false
                });
                if let Some(end) = stop.map(|r| k + r).filter(|&e| toks[e].text != "{") {
                    ranges.push((i, end));
                    i = end + 1;
                    continue;
                }
                if let Some(open) = stop.map(|r| k + r) {
                    let mut d = 0usize;
                    let mut end = open;
                    for (off, t) in toks[open..].iter().enumerate() {
                        match t.text.as_str() {
                            "{" => d += 1,
                            "}" => {
                                d -= 1;
                                if d == 0 {
                                    end = open + off;
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    ranges.push((i, end));
                    i = end + 1;
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        check_file(path, &lex(src))
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_runtime_rules() {
        let src = r#"
            fn live() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { y.unwrap(); z.expect("boom"); }
            }
        "#;
        let f = findings("crates/oned/src/server.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn cfg_test_fields_and_statements_exempt_only_themselves() {
        let src = r#"
            struct S {
                #[cfg(test)]
                oracle: bool,
            }
            impl S {
                fn live(&self) {
                    #[cfg(test)]
                    let x = if self.oracle { y.unwrap() } else { 0 };
                    z.unwrap();
                }
            }
        "#;
        let f = findings("crates/oned/src/server.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 10);
    }

    #[test]
    fn relaxed_needs_a_nearby_justification() {
        let bad = "a.load(Ordering::Relaxed);";
        let same_line = "a.load(Ordering::Relaxed); // relaxed: diagnostics";
        let line_above = "// relaxed: diagnostics\na.load(Ordering::Relaxed);";
        let too_far = "// relaxed: diagnostics\n\n\n\n\na.load(Ordering::Relaxed);";
        assert_eq!(findings("crates/x/src/a.rs", bad).len(), 1);
        assert!(findings("crates/x/src/a.rs", same_line).is_empty());
        assert!(findings("crates/x/src/a.rs", line_above).is_empty());
        assert_eq!(findings("crates/x/src/a.rs", too_far).len(), 1);
    }

    #[test]
    fn signal_handler_rule_needs_registration() {
        let unregistered = r#"extern "C" fn on_signal(_s: i32) { println!("hi"); }"#;
        assert!(findings("crates/x/src/a.rs", unregistered).is_empty());

        let registered = r#"
            extern "C" fn on_signal(_s: i32) { do_work(); }
            fn install() {
                extern "C" { fn signal(n: i32, h: extern "C" fn(i32)) -> usize; }
                unsafe { signal(SIGTERM, on_signal); }
            }
        "#;
        let f = findings("crates/x/src/a.rs", registered);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("do_work"));

        let safe = r#"
            extern "C" fn on_signal(_s: i32) { SHUTDOWN.store(true, Ordering::SeqCst); }
            fn install() {
                extern "C" { fn signal(n: i32, h: extern "C" fn(i32)) -> usize; }
                unsafe { signal(SIGTERM, on_signal); }
            }
        "#;
        assert!(findings("crates/x/src/a.rs", safe).is_empty());
    }

    #[test]
    fn core_thread_is_on_the_request_path() {
        let src = r#"fn run() { state.write().expect("state lock"); }"#;
        let f = findings("crates/oned/src/core.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unwrap-in-request-path");
    }

    #[test]
    fn deployed_schedule_mutations_outside_the_reconciler_are_flagged() {
        // Direct mutation in production code: flagged.
        for src in [
            "fn f() { self.deployed.assign(g, j, b); }",
            "fn f() { self.deployed.evict(j); }",
            "fn f() { self.deployed.clear(g); }",
            "fn f() { self.deployed = next; }",
        ] {
            let f = findings("crates/simulator/src/engine.rs", src);
            assert_eq!(f.len(), 1, "{src}: {f:?}");
            assert_eq!(f[0].rule, "deployed-mutation");
        }
        // Reads, bindings, comparisons and struct fields: clean.
        for src in [
            "fn f() { let deployed = self.recon.actual(); }",
            "fn f() { let x = view.deployed.placement(j); }",
            "fn f() { if deployed == desired { return; } }",
            "fn f() { ClusterView { deployed: self.recon.actual() }; }",
        ] {
            let f = findings("crates/simulator/src/engine.rs", src);
            assert!(f.is_empty(), "{src}: {f:?}");
        }
        // The reconciler itself and test code are exempt.
        let mutate = "fn f() { self.deployed.evict(j); }";
        assert!(findings("crates/schedcore/src/reconcile.rs", mutate).is_empty());
        let in_test = "#[cfg(test)]\nmod t { fn f(h: &mut H) { h.deployed.evict(j); } }";
        assert!(findings("crates/ones/src/scheduler.rs", in_test).is_empty());
    }

    #[test]
    fn scope_prefixes_gate_the_path_rules() {
        let clock = "fn f() { let t = Instant::now(); }";
        assert_eq!(findings("crates/evo/src/search.rs", clock).len(), 1);
        assert!(findings("crates/oned/src/server.rs", clock).is_empty());

        let cmp = "a.partial_cmp(&b)";
        assert_eq!(findings("crates/baselines/src/slaq.rs", cmp).len(), 1);
        assert!(findings("crates/workload/src/trace.rs", cmp).is_empty());

        let sync = "use std::sync::Mutex;";
        assert_eq!(findings("crates/evo/src/cache.rs", sync).len(), 1);
        assert!(findings("crates/sync/src/lib.rs", sync).is_empty());
    }
}
