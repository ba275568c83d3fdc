//! SQL tokenizer.

use crate::error::{StoreError, StoreResult};

/// One token, with its byte offset for error reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub pos: usize,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Keyword or identifier (keywords are matched case-insensitively by the
    /// parser; the original text is preserved).
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    /// `?` positional parameter.
    Param,
    Comma,
    Dot,
    Star,
    LParen,
    RParen,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Eof,
}

impl TokenKind {
    /// True if this is the identifier `word` (case-insensitive).
    pub fn is_kw(&self, word: &str) -> bool {
        matches!(self, TokenKind::Ident(s) if s.eq_ignore_ascii_case(word))
    }
}

/// Tokenize `sql` into a token vector terminated by `Eof`.
pub fn tokenize(sql: &str) -> StoreResult<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let err = |pos: usize, message: &str| StoreError::Syntax {
        pos,
        message: message.to_string(),
    };
    while i < bytes.len() {
        let c = bytes[i];
        let start = i;
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    pos: start,
                });
                i += 1;
            }
            b'.' => {
                tokens.push(Token {
                    kind: TokenKind::Dot,
                    pos: start,
                });
                i += 1;
            }
            b'*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    pos: start,
                });
                i += 1;
            }
            b'(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    pos: start,
                });
                i += 1;
            }
            b')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    pos: start,
                });
                i += 1;
            }
            b'?' => {
                tokens.push(Token {
                    kind: TokenKind::Param,
                    pos: start,
                });
                i += 1;
            }
            b'=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    pos: start,
                });
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Neq,
                        pos: start,
                    });
                    i += 2;
                } else {
                    return Err(err(start, "expected '=' after '!'"));
                }
            }
            b'<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        pos: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token {
                        kind: TokenKind::Neq,
                        pos: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        pos: start,
                    });
                    i += 1;
                }
            }
            b'>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        pos: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        pos: start,
                    });
                    i += 1;
                }
            }
            b'\'' => {
                // single-quoted string, '' escapes a quote
                let mut s = String::new();
                i += 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(err(start, "unterminated string")),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&b) => {
                            s.push(b as char);
                            i += 1;
                        }
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    pos: start,
                });
            }
            b'0'..=b'9' | b'-' => {
                let neg = c == b'-';
                if neg && !bytes.get(i + 1).map(u8::is_ascii_digit).unwrap_or(false) {
                    return Err(err(start, "expected digit after '-'"));
                }
                let mut j = i + 1;
                let mut is_float = false;
                while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
                    if bytes[j] == b'.' {
                        if is_float {
                            break;
                        }
                        is_float = true;
                    }
                    j += 1;
                }
                let text = &sql[i..j];
                let kind = if is_float {
                    TokenKind::Float(
                        text.parse()
                            .map_err(|_| err(start, "invalid float literal"))?,
                    )
                } else {
                    TokenKind::Int(
                        text.parse()
                            .map_err(|_| err(start, "invalid integer literal"))?,
                    )
                };
                tokens.push(Token { kind, pos: start });
                i = j;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Ident(sql[i..j].to_string()),
                    pos: start,
                });
                i = j;
            }
            _ => return Err(err(start, &format!("unexpected character '{}'", c as char))),
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        pos: bytes.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_a_select() {
        let ks = kinds("SELECT * FROM t WHERE id = ?");
        assert_eq!(
            ks,
            vec![
                TokenKind::Ident("SELECT".into()),
                TokenKind::Star,
                TokenKind::Ident("FROM".into()),
                TokenKind::Ident("t".into()),
                TokenKind::Ident("WHERE".into()),
                TokenKind::Ident("id".into()),
                TokenKind::Eq,
                TokenKind::Param,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers_and_negatives() {
        assert_eq!(
            kinds("42 -7 3.25"),
            vec![
                TokenKind::Int(42),
                TokenKind::Int(-7),
                TokenKind::Float(3.25),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn strings_with_escaped_quotes() {
        assert_eq!(
            kinds("'it''s'"),
            vec![TokenKind::Str("it's".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("< <= > >= != <> ="),
            vec![
                TokenKind::Lt,
                TokenKind::Le,
                TokenKind::Gt,
                TokenKind::Ge,
                TokenKind::Neq,
                TokenKind::Neq,
                TokenKind::Eq,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
    }

    #[test]
    fn bad_character_reports_position() {
        let err = tokenize("SELECT #").unwrap_err();
        match err {
            StoreError::Syntax { pos, .. } => assert_eq!(pos, 7),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dotted_column_refs() {
        assert_eq!(
            kinds("a.b"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Dot,
                TokenKind::Ident("b".into()),
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn keyword_matching_is_case_insensitive() {
        let toks = tokenize("select").unwrap();
        assert!(toks[0].kind.is_kw("SELECT"));
        assert!(toks[0].kind.is_kw("select"));
        assert!(!toks[0].kind.is_kw("FROM"));
    }
}
