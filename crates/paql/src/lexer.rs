//! The PaQL lexer.

use crate::error::PaqlError;
use crate::token::{Keyword, SpannedToken, Token};
use crate::PaqlResult;

/// Tokenizes PaQL source text.
pub fn tokenize(source: &str) -> PaqlResult<Vec<SpannedToken>> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    // Decode the character at `i` properly so multi-byte UTF-8 input is
    // either tokenized (inside string literals) or rejected with a clean
    // error instead of a slicing panic.
    while let Some(c) = source[i..].chars().next() {
        let start = i;
        match c {
            c if c.is_whitespace() => {
                i += c.len_utf8();
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // SQL line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '(' => {
                tokens.push(SpannedToken {
                    token: Token::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(SpannedToken {
                    token: Token::RParen,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(SpannedToken {
                    token: Token::Comma,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                tokens.push(SpannedToken {
                    token: Token::Dot,
                    offset: start,
                });
                i += 1;
            }
            '+' => {
                tokens.push(SpannedToken {
                    token: Token::Plus,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                tokens.push(SpannedToken {
                    token: Token::Minus,
                    offset: start,
                });
                i += 1;
            }
            '*' => {
                tokens.push(SpannedToken {
                    token: Token::Star,
                    offset: start,
                });
                i += 1;
            }
            '/' => {
                tokens.push(SpannedToken {
                    token: Token::Slash,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(SpannedToken {
                    token: Token::Eq,
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(SpannedToken {
                        token: Token::NotEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(PaqlError::Lex {
                        message: "unexpected character '!'".into(),
                        offset: start,
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(SpannedToken {
                        token: Token::LtEq,
                        offset: start,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(SpannedToken {
                        token: Token::NotEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(SpannedToken {
                        token: Token::GtEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '\'' | '\u{2018}' | '\u{2019}' => {
                // String literal; accept typographic quotes too (the paper's
                // PDF uses them in the example query).
                let quote_len = c.len_utf8();
                let mut j = i + quote_len;
                let mut value = String::new();
                let mut closed = false;
                while let Some(ch) = source[j..].chars().next() {
                    let rest = &source[j..];
                    if ch == '\'' || ch == '\u{2018}' || ch == '\u{2019}' {
                        // Doubled straight quote escapes a quote.
                        if ch == '\'' && rest[ch.len_utf8()..].starts_with('\'') {
                            value.push('\'');
                            j += 2;
                            continue;
                        }
                        closed = true;
                        j += ch.len_utf8();
                        break;
                    }
                    value.push(ch);
                    j += ch.len_utf8();
                }
                if !closed {
                    return Err(PaqlError::Lex {
                        message: "unterminated string literal".into(),
                        offset: start,
                    });
                }
                tokens.push(SpannedToken {
                    token: Token::String(value),
                    offset: start,
                });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let mut j = i;
                let mut saw_dot = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.'
                        && !saw_dot
                        && j + 1 < bytes.len()
                        && (bytes[j + 1] as char).is_ascii_digit()
                    {
                        saw_dot = true;
                        j += 1;
                    } else if d == '_' {
                        j += 1; // allow 2_000 style separators
                    } else {
                        break;
                    }
                }
                let raw: String = source[i..j].chars().filter(|&c| c != '_').collect();
                let value: f64 = raw.parse().map_err(|_| PaqlError::Lex {
                    message: format!("invalid numeric literal '{raw}'"),
                    offset: start,
                })?;
                tokens.push(SpannedToken {
                    token: Token::Number(value),
                    offset: start,
                });
                i = j;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while let Some(d) = source[j..].chars().next() {
                    if d.is_alphanumeric() || d == '_' {
                        j += d.len_utf8();
                    } else {
                        break;
                    }
                }
                let word = &source[i..j];
                let token = match Keyword::from_word(word) {
                    Some(k) => Token::Keyword(k),
                    None => Token::Ident(word.to_string()),
                };
                tokens.push(SpannedToken {
                    token,
                    offset: start,
                });
                i = j;
            }
            other => {
                return Err(PaqlError::Lex {
                    message: format!("unexpected character '{other}'"),
                    offset: start,
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Token> {
        tokenize(src)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn tokenizes_the_paper_query() {
        let toks = kinds(
            "SELECT PACKAGE(R) AS P FROM Recipes R WHERE R.gluten = 'free' \
             SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 \
             MAXIMIZE SUM(P.protein)",
        );
        assert!(toks.contains(&Token::Keyword(Keyword::Package)));
        assert!(toks.contains(&Token::String("free".into())));
        assert!(toks.contains(&Token::Number(2000.0)));
        assert!(toks.contains(&Token::Star));
    }

    #[test]
    fn numbers_with_underscores_and_decimals() {
        assert_eq!(
            kinds("2_000 12.5"),
            vec![Token::Number(2000.0), Token::Number(12.5)]
        );
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("<= >= <> != < > ="),
            vec![
                Token::LtEq,
                Token::GtEq,
                Token::NotEq,
                Token::NotEq,
                Token::Lt,
                Token::Gt,
                Token::Eq
            ]
        );
    }

    #[test]
    fn strings_with_escapes_and_unterminated() {
        assert_eq!(kinds("'it''s'"), vec![Token::String("it's".into())]);
        assert!(matches!(tokenize("'oops"), Err(PaqlError::Lex { .. })));
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("1 -- comment\n2"),
            vec![Token::Number(1.0), Token::Number(2.0)]
        );
    }

    #[test]
    fn offsets_are_recorded() {
        let toks = tokenize("SELECT  PACKAGE").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 8);
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(matches!(tokenize("a ; b"), Err(PaqlError::Lex { .. })));
    }
}
