//! The determinism rule set. Each pass walks the flat token stream
//! produced by [`crate::lexer`]; shared structural helpers (statement
//! segmentation, brace matching) live here.
//!
//! These are deliberately *lexical* heuristics, tuned on this
//! workspace and pinned by the fixture suite in `tests/`: with no
//! `syn` (offline container) there is no type information, so each
//! rule documents exactly what shape it matches and the fixtures keep
//! both the positive and negative space honest.

pub mod r3_float_time;
pub mod r4_wildcard;
pub mod r5_debug_assert;

use crate::lexer::{Tok, TokKind};

/// Index of the token matching the `{`/`(`/`[` at `open`, or the
/// stream end if unbalanced.
pub fn matching_close(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len()
}

/// Split a token stream into "statements" for statement-scoped rules.
///
/// Boundaries: `;` anywhere, `{` / `}` anywhere, and `,` at a level
/// where the innermost open bracket is a brace (so struct-literal
/// field initializers and match arms split, while call/tuple arguments
/// inside `(...)` stay together).
pub fn statements(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut stack: Vec<char> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => stack.push('('),
            "[" => stack.push('['),
            "{" => {
                if start < i {
                    out.push((start, i));
                }
                start = i + 1;
                stack.push('{');
            }
            ")" | "]" => {
                stack.pop();
            }
            "}" => {
                if start < i {
                    out.push((start, i));
                }
                start = i + 1;
                stack.pop();
            }
            ";" => {
                if start < i {
                    out.push((start, i));
                }
                start = i + 1;
            }
            "," if stack.last().copied().unwrap_or('{') == '{' => {
                if start < i {
                    out.push((start, i));
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        out.push((start, toks.len()));
    }
    out
}
