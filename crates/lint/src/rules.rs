//! The rule engine: determinism and invariant rules over a token stream.
//!
//! Every rule is grounded in an invariant the workspace already pins
//! dynamically (byte-stable stores, seed-pure trial allocation, the
//! zero-allocation round loop) — the lint moves the check from "a test
//! would have caught it eventually" to "the tree does not build the
//! violation in the first place".
//!
//! | rule | name                    | scope                                  |
//! |------|-------------------------|----------------------------------------|
//! | D1   | no-unordered-iteration  | determinism crates                     |
//! | D2   | no-wall-clock-ambient-rng | determinism crates                   |
//! | D3   | no-alloc-in-hot-path    | `lint: hot-path` regions, everywhere   |
//! | D4   | panic-freedom           | non-test library code (bins exempt)    |
//! | D5   | serde-stability-registry | workspace-wide (see [`crate::registry`]) |
//! | D6   | crate-headers           | crate roots (`lib.rs`)                 |
//! | M1   | marker-syntax           | everywhere                             |
//! | M2   | unused-allow            | everywhere                             |

use crate::lexer::{Lexed, Token, TokenKind};
use crate::markers::{AllowScope, Markers};

/// Crates whose code feeds serde output, store bytes, or seeded execution —
/// the scope of the ordering (D1) and wall-clock/ambient-RNG (D2) rules.
/// `analysis` and `bench` are measurement harnesses: they may time things
/// and format freely, and nothing they compute enters a store byte.
pub const DETERMINISM_CRATES: &[&str] = &[
    "graphs",
    "sim",
    "adversary",
    "core",
    "scenario",
    "campaign",
    "facade",
];

/// One diagnostic the lint emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Short rule id (`D1` … `D6`, `M1`, `M2`).
    pub rule: &'static str,
    /// Kebab-case rule name.
    pub name: &'static str,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it (printed under `--fix-hints`).
    pub hint: String,
}

/// How a file is situated in the workspace — drives rule scoping.
#[derive(Debug, Clone, Default)]
pub struct FileContext {
    /// The crate directory name (`campaign`, `sim`, …); `"facade"` for the
    /// root `src/`.
    pub crate_name: String,
    /// Whether the file is the crate root (`lib.rs` directly under `src/`).
    pub is_lib_root: bool,
    /// Whether the file is a binary target (`src/bin/…` or `src/main.rs`) —
    /// exempt from the panic-freedom rule (a CLI may abort; libraries
    /// propagate errors).
    pub is_bin: bool,
}

impl FileContext {
    fn determinism_scoped(&self) -> bool {
        DETERMINISM_CRATES.contains(&self.crate_name.as_str())
    }
}

/// Runs every token-level rule over one lexed file, applies the file's
/// suppression markers, and reports marker problems (including unused
/// allows). Returned findings are sorted by position.
pub fn check_file(ctx: &FileContext, lexed: &Lexed) -> Vec<Finding> {
    let markers = Markers::parse(&lexed.comments);
    let test_lines = test_regions(&lexed.tokens);
    let in_test = |line: u32| test_lines.iter().any(|&(s, e)| line >= s && line <= e);

    let mut raw: Vec<Finding> = Vec::new();
    if ctx.determinism_scoped() {
        rule_d1(&lexed.tokens, &mut raw);
        rule_d2(&lexed.tokens, &mut raw);
    }
    rule_d3(&lexed.tokens, &markers, &mut raw);
    if !ctx.is_bin {
        rule_d4(&lexed.tokens, &mut raw);
    }
    if ctx.is_lib_root {
        rule_d6(&lexed.tokens, &mut raw);
    }
    raw.retain(|f| !in_test(f.line));

    // Suppression: a finding dies to the first allow covering its rule and
    // position; every allow must kill at least one finding.
    let mut used = vec![false; markers.allows.len()];
    let mut findings: Vec<Finding> = Vec::new();
    for finding in raw {
        let suppressed = markers.allows.iter().enumerate().any(|(i, allow)| {
            let rule_match = allow.rules.iter().any(|r| r == finding.rule);
            let scope_match = match allow.scope {
                AllowScope::Line(line) => line == finding.line,
                AllowScope::File => true,
            };
            if rule_match && scope_match {
                used[i] = true;
                true
            } else {
                false
            }
        });
        if !suppressed {
            findings.push(finding);
        }
    }

    for error in &markers.errors {
        if in_test(error.line) {
            continue;
        }
        findings.push(Finding {
            rule: "M1",
            name: "marker-syntax",
            line: error.line,
            col: error.col,
            message: error.message.clone(),
            hint: "fix the marker: `// lint: allow(<rule>) -- <justification>`".into(),
        });
    }
    for (i, allow) in markers.allows.iter().enumerate() {
        if used[i] || in_test(allow.line) {
            continue;
        }
        findings.push(Finding {
            rule: "M2",
            name: "unused-allow",
            line: allow.line,
            col: allow.col,
            message: format!(
                "allow({}) suppresses nothing; stale suppressions hide future violations",
                allow.rules.join(", ")
            ),
            hint: "delete the marker (or move it next to the code it excuses)".into(),
        });
    }

    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// D1: `HashMap`/`HashSet` iteration order is seeded per process — any use
/// in code that feeds serde output, `CellSpec::key()`, or store bytes is a
/// latent nondeterminism bug.
fn rule_d1(tokens: &[Token], out: &mut Vec<Finding>) {
    for t in tokens {
        if t.kind == TokenKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            let ordered = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(Finding {
                rule: "D1",
                name: "no-unordered-iteration",
                line: t.line,
                col: t.col,
                message: format!(
                    "{} has randomized iteration order; in a determinism-scoped crate any \
                     iteration can leak into serde output, cell keys, or store bytes",
                    t.text
                ),
                hint: format!(
                    "use {ordered} (order-stable, usually free at these sizes), or add \
                     `// lint: allow(D1) -- <why the order provably never escapes>`"
                ),
            });
        }
    }
}

/// D2: wall-clock time and ambient (OS-seeded) randomness make trials
/// unreproducible; simulation code takes seeded RNGs only.
fn rule_d2(tokens: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "Instant" | "SystemTime" | "thread_rng" => true,
            "random" => path_prefix_is(tokens, i, "rand"),
            _ => false,
        };
        if flagged {
            out.push(Finding {
                rule: "D2",
                name: "no-wall-clock-ambient-rng",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` injects wall-clock time or OS entropy; trial outcomes must be a pure \
                     function of the spec and its seed",
                    t.text
                ),
                hint: "thread a seeded `ChaCha8Rng` (or round counter) through instead, or add \
                       `// lint: allow(D2) -- <why this never reaches a measurement>`"
                    .into(),
            });
        }
    }
}

/// D3: inside `lint: hot-path` regions, constructs that allocate per round
/// are forbidden — the round loop was made allocation-free in PR 3 and must
/// stay that way.
fn rule_d3(tokens: &[Token], markers: &Markers, out: &mut Vec<Finding>) {
    if markers.hot_regions.is_empty() {
        return;
    }
    let in_hot = |line: u32| {
        markers
            .hot_regions
            .iter()
            .any(|r| line >= r.start && line <= r.end)
    };
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || !in_hot(t.line) {
            continue;
        }
        let flagged = match t.text.as_str() {
            "clone" | "collect" | "to_vec" => after_dot_or_path(tokens, i),
            "format" | "vec" => next_is_bang(tokens, i),
            "new" => path_prefix_is(tokens, i, "Vec") || path_prefix_is(tokens, i, "Box"),
            _ => false,
        };
        if flagged {
            out.push(Finding {
                rule: "D3",
                name: "no-alloc-in-hot-path",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` allocates inside a `lint: hot-path` region; the round loop reuses \
                     scratch buffers and must stay allocation-free",
                    t.text
                ),
                hint: "reuse a scratch buffer (clear, don't reallocate), or add \
                       `// lint: allow(D3) -- <why this path is cold or amortized>`"
                    .into(),
            });
        }
    }
}

/// D4: `unwrap`/`expect`/`panic!`/`todo!` in library code abort a whole
/// campaign worker; every panic-capable call needs a written justification.
fn rule_d4(tokens: &[Token], out: &mut Vec<Finding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "unwrap" | "expect" => after_dot_or_path(tokens, i),
            "panic" | "todo" | "unimplemented" => next_is_bang(tokens, i),
            _ => false,
        };
        if flagged {
            out.push(Finding {
                rule: "D4",
                name: "panic-freedom",
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` can panic in library code; campaign workers catch panics but lose \
                     the cell — errors should propagate as `Result`s",
                    t.text
                ),
                hint: "return an error (the crate error types cover this), or add \
                       `// lint: allow(D4) -- <the invariant that makes this unreachable>`"
                    .into(),
            });
        }
    }
}

/// D6: every crate root carries the workspace's unified lint header.
fn rule_d6(tokens: &[Token], out: &mut Vec<Finding>) {
    for (level, arg) in [("forbid", "unsafe_code"), ("warn", "missing_docs")] {
        if !has_inner_attr(tokens, level, arg) {
            out.push(Finding {
                rule: "D6",
                name: "crate-headers",
                line: 1,
                col: 1,
                message: format!(
                    "crate root is missing `#![{level}({arg})]`; every workspace crate \
                     carries the unified lint header"
                ),
                hint: format!("add `#![{level}({arg})]` under the crate docs"),
            });
        }
    }
}

/// Whether token `i` is preceded by `.` or `::` (a method call or path
/// segment, as opposed to e.g. a local named `clone`).
fn after_dot_or_path(tokens: &[Token], i: usize) -> bool {
    match i.checked_sub(1).and_then(|j| tokens.get(j)) {
        Some(prev) if prev.kind == TokenKind::Punct => prev.text == "." || prev.text == ":",
        _ => false,
    }
}

/// Whether token `i` is immediately followed by `!` (a macro invocation).
fn next_is_bang(tokens: &[Token], i: usize) -> bool {
    matches!(tokens.get(i + 1), Some(t) if t.kind == TokenKind::Punct && t.text == "!")
}

/// Whether token `i` is the last segment of a path starting with `prefix`
/// (`prefix :: ident`).
fn path_prefix_is(tokens: &[Token], i: usize, prefix: &str) -> bool {
    if i < 3 {
        return false;
    }
    let colons = tokens[i - 2].text == ":" && tokens[i - 1].text == ":";
    colons && tokens[i - 3].kind == TokenKind::Ident && tokens[i - 3].text == prefix
}

fn has_inner_attr(tokens: &[Token], level: &str, arg: &str) -> bool {
    tokens.windows(8).any(|w| {
        w[0].text == "#"
            && w[1].text == "!"
            && w[2].text == "["
            && w[3].text == level
            && w[4].text == "("
            && w[5].text == arg
            && w[6].text == ")"
            && w[7].text == "]"
    })
}

/// Line ranges (1-based, inclusive) covered by `#[cfg(test)]` items — test
/// modules and test-only helpers are exempt from every rule.
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Match `#[cfg(` … `test` … `)]`.
        let is_cfg_test = tokens[i].text == "#"
            && tokens.get(i + 1).is_some_and(|t| t.text == "[")
            && tokens.get(i + 2).is_some_and(|t| t.text == "cfg")
            && tokens.get(i + 3).is_some_and(|t| t.text == "(");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan the attribute's argument list for the `test` flag.
        let start_line = tokens[i].line;
        let mut j = i + 4;
        let mut depth = 1usize;
        let mut saw_test = false;
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                "test" if tokens[j].kind == TokenKind::Ident => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        // Expect the closing `]`.
        if j < tokens.len() && tokens[j].text == "]" {
            j += 1;
        }
        if !saw_test {
            i = j;
            continue;
        }
        // The annotated item: skip further attributes, then span either to
        // the `;` of a bodyless item or across the balanced `{ … }` body.
        while j + 1 < tokens.len() && tokens[j].text == "#" && tokens[j + 1].text == "[" {
            let mut d = 0usize;
            while j < tokens.len() {
                match tokens[j].text.as_str() {
                    "[" => d += 1,
                    "]" => {
                        d -= 1;
                        if d == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let mut brace_depth = 0usize;
        let mut end_line = start_line;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                ";" if brace_depth == 0 => {
                    end_line = tokens[j].line;
                    break;
                }
                "{" => brace_depth += 1,
                "}" => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        end_line = tokens[j].line;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(crate_name: &str, src: &str) -> Vec<Finding> {
        let ctx = FileContext {
            crate_name: crate_name.into(),
            is_lib_root: false,
            is_bin: false,
        };
        check_file(&ctx, &lex(src))
    }

    #[test]
    fn d1_flags_hash_collections_in_scope_only() {
        let src = "use std::collections::HashMap;\nfn f() -> HashSet<u32> { todo() }\n";
        let in_scope = check("campaign", src);
        assert_eq!(in_scope.iter().filter(|f| f.rule == "D1").count(), 2);
        let out_of_scope = check("analysis", src);
        assert!(out_of_scope.iter().all(|f| f.rule != "D1"));
        // Strings and comments never trigger it.
        assert!(check("campaign", "// HashMap\nconst S: &str = \"HashMap\";\n").is_empty());
    }

    #[test]
    fn d2_flags_clock_and_ambient_rng() {
        let src =
            "use std::time::Instant;\nlet x = rand::random::<f64>();\nlet r = thread_rng();\n";
        let hits = check("sim", src);
        assert_eq!(hits.iter().filter(|f| f.rule == "D2").count(), 3);
        // `random` as a field or free fn is not `rand::random`.
        assert!(check("sim", "let random = 3; self.random();").is_empty());
    }

    #[test]
    fn d3_only_fires_inside_hot_regions() {
        let cold = "fn setup() { let v: Vec<u32> = (0..4).collect(); }\n";
        assert!(check("sim", cold).is_empty());
        let hot = "// lint: hot-path\nfn round() { let v = Vec::new(); let s = x.clone(); \
                   let f = format!(\"x\"); }\n// lint: end-hot-path\n";
        let hits = check("sim", hot);
        assert_eq!(hits.iter().filter(|f| f.rule == "D3").count(), 3);
    }

    #[test]
    fn d4_flags_panic_capable_calls_and_honors_allows() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"no\"); }\n";
        assert_eq!(check("graphs", src).len(), 3);
        let allowed = "fn f() {\n    // lint: allow(D4) -- index is in range by construction\n    \
                       x.unwrap();\n}\n";
        assert!(check("graphs", allowed).is_empty());
        // `unwrap` not in call position (a local, a definition) is fine.
        assert!(check("graphs", "fn unwrap() {} let unwrap = 2;").is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); \
                   let m = std::collections::HashMap::new(); }\n}\n";
        assert!(check("campaign", src).is_empty());
        // `#[cfg(test)]` on a bodyless item exempts just that item.
        let use_only = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() { y.unwrap(); }\n";
        let hits = check("campaign", use_only);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "D4");
    }

    #[test]
    fn d6_requires_the_unified_header() {
        let ctx = FileContext {
            crate_name: "sim".into(),
            is_lib_root: true,
            is_bin: false,
        };
        let bare = check_file(&ctx, &lex("//! docs\npub fn f() {}\n"));
        assert_eq!(bare.iter().filter(|f| f.rule == "D6").count(), 2);
        let full = check_file(
            &ctx,
            &lex("#![forbid(unsafe_code)]\n#![warn(missing_docs)]\npub fn f() {}\n"),
        );
        assert!(full.is_empty());
    }

    #[test]
    fn bins_are_exempt_from_panic_freedom_only() {
        let ctx = FileContext {
            crate_name: "campaign".into(),
            is_lib_root: false,
            is_bin: true,
        };
        let src = "fn main() { let m: std::collections::HashMap<u32, u32> = x.unwrap(); }\n";
        let hits = check_file(&ctx, &lex(src));
        assert!(hits.iter().all(|f| f.rule != "D4"));
        assert!(hits.iter().any(|f| f.rule == "D1"));
    }

    #[test]
    fn unused_allows_are_reported() {
        let src = "// lint: allow(D4) -- nothing here panics\nfn f() {}\n";
        let hits = check("campaign", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "M2");
        // A used file-scope allow is not unused.
        let used = "// lint: allow-file(D1) -- ordering never escapes this module\n\
                    use std::collections::HashMap;\nfn f(m: HashMap<u32, u32>) {}\n";
        assert!(check("campaign", used).is_empty());
    }

    #[test]
    fn marker_errors_surface_as_findings() {
        let hits = check("campaign", "// lint: allow(D4)\nfn f() { x.unwrap(); }\n");
        assert!(hits.iter().any(|f| f.rule == "M1"));
        assert!(hits.iter().any(|f| f.rule == "D4"), "no half-suppression");
    }
}
