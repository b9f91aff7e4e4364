//! Tokenizer for the benchmark's SQL dialect.

use std::fmt;

/// A token with its byte position (for error messages).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the source.
    pub pos: usize,
}

/// The kinds of token the dialect uses.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (matched case-insensitively by the parser).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// `?` placeholder.
    Question,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `*`
    Star,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::Int(v) => write!(f, "{v}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Question => write!(f, "?"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Star => write!(f, "*"),
        }
    }
}

/// A lexing failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LexError {
    /// What went wrong.
    pub message: String,
    /// Byte offset.
    pub pos: usize,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize `src`.
pub(crate) fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '?' => {
                out.push(Token {
                    kind: TokenKind::Question,
                    pos: i,
                });
                i += 1;
            }
            ',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    pos: i,
                });
                i += 1;
            }
            '(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    pos: i,
                });
                i += 1;
            }
            ')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    pos: i,
                });
                i += 1;
            }
            '=' => {
                out.push(Token {
                    kind: TokenKind::Eq,
                    pos: i,
                });
                i += 1;
            }
            '+' => {
                out.push(Token {
                    kind: TokenKind::Plus,
                    pos: i,
                });
                i += 1;
            }
            '*' => {
                out.push(Token {
                    kind: TokenKind::Star,
                    pos: i,
                });
                i += 1;
            }
            '\'' => {
                let start = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            message: "unterminated string literal".into(),
                            pos: start,
                        });
                    }
                    if bytes[i] == b'\'' {
                        // '' escapes a quote.
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                            continue;
                        }
                        i += 1;
                        break;
                    }
                    s.push(bytes[i] as char);
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Str(s),
                    pos: start,
                });
            }
            '0'..='9' | '-' => {
                let start = i;
                if c == '-' {
                    i += 1;
                    if i >= bytes.len() || !bytes[i].is_ascii_digit() {
                        return Err(LexError {
                            message: "expected digits after '-'".into(),
                            pos: start,
                        });
                    }
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v: i64 = text.parse().map_err(|_| LexError {
                    message: format!("integer out of range: {text}"),
                    pos: start,
                })?;
                out.push(Token {
                    kind: TokenKind::Int(v),
                    pos: start,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    pos: start,
                });
            }
            other => {
                return Err(LexError {
                    message: format!("unexpected character {other:?}"),
                    pos: i,
                })
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_paper_statements() {
        let toks = kinds("INSERT INTO orderline VALUES (DEFAULT, ?,?,?,?)");
        assert_eq!(toks[0], TokenKind::Ident("INSERT".into()));
        assert_eq!(
            toks.iter().filter(|t| **t == TokenKind::Question).count(),
            4
        );

        let toks = kinds("UPDATE orders SET O_UPDATEDDATE=?, O_STATUS='PAID' WHERE O_ID=?");
        assert!(toks.contains(&TokenKind::Str("PAID".into())));
        assert!(toks.contains(&TokenKind::Eq));
    }

    #[test]
    fn string_escape() {
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
    }

    #[test]
    fn negative_and_positive_ints() {
        assert_eq!(
            kinds("-42 17"),
            vec![TokenKind::Int(-42), TokenKind::Int(17)]
        );
    }

    #[test]
    fn plus_expression() {
        assert_eq!(
            kinds("C_CREDIT+?"),
            vec![
                TokenKind::Ident("C_CREDIT".into()),
                TokenKind::Plus,
                TokenKind::Question
            ]
        );
    }

    #[test]
    fn errors_carry_position() {
        let e = lex("SELECT 'oops").unwrap_err();
        assert_eq!(e.pos, 7);
        let e = lex("SELECT ;").unwrap_err();
        assert_eq!(e.pos, 7);
        let e = lex("a - b").unwrap_err();
        assert!(e.message.contains("digits"));
    }
}
