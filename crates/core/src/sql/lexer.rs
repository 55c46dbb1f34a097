//! SQL lexer: a hand-written scanner producing offset-carrying tokens.
//!
//! Unquoted identifiers and keywords are case-folded to lowercase (SQL
//! case-insensitivity); string literals are preserved byte-for-byte. Every
//! token records the byte offset it started at so the parser and binder can
//! report positioned errors. The lexer never panics: any malformed input
//! (unterminated string, stray byte, numeric overflow) is a [`RawError`].

use super::RawError;

/// A lexical token kind.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Unquoted identifier or keyword, folded to lowercase.
    Ident(String),
    /// Single-quoted string literal (quotes stripped, content preserved).
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Punctuation or operator (`(`, `)`, `,`, `*`, `<=`, …).
    Sym(&'static str),
}

/// A token plus the byte offset where it started in the source text.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub tok: Tok,
    /// Byte offset of the first character in the source text.
    pub offset: usize,
}

/// Scans `text` into tokens. `--` line comments and all ASCII whitespace
/// are skipped; a trailing `;` is tolerated by the parser, not here.
pub fn lex(text: &str) -> Result<Vec<Token>, RawError> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Line comments.
        if b == b'-' && bytes.get(i + 1) == Some(&b'-') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        let start = i;
        if b == b'\'' {
            i += 1;
            let lit_start = i;
            while i < bytes.len() && bytes[i] != b'\'' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err(RawError::new(start, "unterminated string literal"));
            }
            out.push(Token {
                tok: Tok::Str(text[lit_start..i].to_string()),
                offset: start,
            });
            i += 1; // closing quote
            continue;
        }
        if b.is_ascii_digit() {
            let mut saw_dot = false;
            let mut saw_exp = false;
            while i < bytes.len() {
                let c = bytes[i];
                if c.is_ascii_digit() {
                    i += 1;
                } else if c == b'.' && !saw_dot && !saw_exp {
                    saw_dot = true;
                    i += 1;
                } else if (c == b'e' || c == b'E')
                    && !saw_exp
                    && bytes
                        .get(i + 1)
                        .is_some_and(|&n| n.is_ascii_digit() || n == b'+' || n == b'-')
                {
                    saw_exp = true;
                    i += 2; // consume 'e' and the sign-or-digit
                } else {
                    break;
                }
            }
            let s = &text[start..i];
            let tok = if saw_dot || saw_exp {
                match s.parse::<f64>() {
                    Ok(v) => Tok::Float(v),
                    Err(_) => return Err(RawError::new(start, format!("bad number `{s}`"))),
                }
            } else {
                match s.parse::<i64>() {
                    Ok(v) => Tok::Int(v),
                    Err(_) => {
                        return Err(RawError::new(
                            start,
                            format!("integer literal `{s}` out of range"),
                        ))
                    }
                }
            };
            out.push(Token { tok, offset: start });
            continue;
        }
        if b.is_ascii_alphabetic() || b == b'_' {
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(Token {
                tok: Tok::Ident(text[start..i].to_ascii_lowercase()),
                offset: start,
            });
            continue;
        }
        // Two-character operators first.
        let two = if i + 1 < bytes.len() {
            &text[i..i + 2]
        } else {
            ""
        };
        let sym: Option<&'static str> = match two {
            "<=" => Some("<="),
            ">=" => Some(">="),
            "<>" => Some("<>"),
            "!=" => Some("<>"), // normalized spelling
            _ => None,
        };
        if let Some(s) = sym {
            out.push(Token {
                tok: Tok::Sym(s),
                offset: start,
            });
            i += 2;
            continue;
        }
        let one: Option<&'static str> = match b {
            b'(' => Some("("),
            b')' => Some(")"),
            b',' => Some(","),
            b'.' => Some("."),
            b'*' => Some("*"),
            b'+' => Some("+"),
            b'-' => Some("-"),
            b'/' => Some("/"),
            b'=' => Some("="),
            b'<' => Some("<"),
            b'>' => Some(">"),
            b';' => Some(";"),
            _ => None,
        };
        match one {
            Some(s) => {
                out.push(Token {
                    tok: Tok::Sym(s),
                    offset: start,
                });
                i += 1;
            }
            None => {
                return Err(RawError::new(
                    start,
                    format!("unexpected character `{}`", &text[start..][..1]),
                ))
            }
        }
    }
    Ok(out)
}

/// Renders the token stream as a whitespace/case-normalized string: the
/// plan-cache key. Two texts that differ only in whitespace, the
/// case of keywords/identifiers, or comments normalize identically; string
/// literal contents are preserved.
pub fn normalized_text(tokens: &[Token]) -> String {
    let mut s = String::new();
    for t in tokens {
        if !s.is_empty() {
            s.push(' ');
        }
        match &t.tok {
            Tok::Ident(id) => s.push_str(id),
            Tok::Str(v) => {
                s.push('\'');
                s.push_str(v);
                s.push('\'');
            }
            Tok::Int(v) => s.push_str(&v.to_string()),
            Tok::Float(v) => s.push_str(&format!("{v:?}")),
            Tok::Sym(sym) => s.push_str(sym),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_case_and_tracks_offsets() {
        let toks = lex("SELECT A_b FROM t -- comment\nWHERE x = 'MiXeD'").unwrap();
        assert_eq!(toks[0].tok, Tok::Ident("select".into()));
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].tok, Tok::Ident("a_b".into()));
        assert_eq!(
            toks.last().unwrap().tok,
            Tok::Str("MiXeD".into()),
            "string content preserved"
        );
    }

    #[test]
    fn numbers_and_operators() {
        let toks = lex("1 2.5 1e-3 <= <> !=").unwrap();
        assert_eq!(toks[0].tok, Tok::Int(1));
        assert_eq!(toks[1].tok, Tok::Float(2.5));
        assert_eq!(toks[2].tok, Tok::Float(1e-3));
        assert_eq!(toks[3].tok, Tok::Sym("<="));
        assert_eq!(toks[4].tok, Tok::Sym("<>"));
        assert_eq!(toks[5].tok, Tok::Sym("<>"));
    }

    #[test]
    fn errors_are_positioned() {
        let err = lex("select 'oops").unwrap_err();
        assert_eq!(err.at, 7);
        let err = lex("select ?").unwrap_err();
        assert_eq!(err.at, 7);
        assert!(lex("select 99999999999999999999").is_err());
    }

    #[test]
    fn normalization_is_whitespace_and_case_insensitive() {
        let a = normalized_text(&lex("SELECT  x\nFROM t").unwrap());
        let b = normalized_text(&lex("select x from T").unwrap());
        assert_eq!(a, b);
        let c = normalized_text(&lex("select x from t where s = 'A'").unwrap());
        let d = normalized_text(&lex("select x from t where s = 'a'").unwrap());
        assert_ne!(c, d, "string literal case matters");
    }
}
