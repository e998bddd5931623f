//! SQL tokenizer.
//!
//! Accepts both PostgreSQL-style (`"ident"`) and MySQL-style (`` `ident` ``)
//! quoted identifiers so the same lexer serves every engine profile, plus the
//! SQLoop keywords (`ITERATIVE`, `ITERATE`, `UNTIL`, `DELTA`, …) which are
//! just ordinary identifiers at this level.

use crate::error::{DbError, DbResult};
use std::borrow::Cow;

/// A single lexed token. Text borrows from the SQL it was lexed from
/// wherever it can: only a word that is not already lower case (and is not
/// a keyword) and a quoted token with a doubled quote are copied.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Keyword or identifier (unquoted; lower-cased).
    Ident(Cow<'a, str>),
    /// Quoted identifier (doubled quotes resolved; lower-cased for matching).
    QuotedIdent(Cow<'a, str>),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (escapes resolved).
    Str(Cow<'a, str>),
    /// Punctuation / operator.
    Symbol(Sym),
}

/// Operator and punctuation tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=` or `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `||`
    Concat,
    /// `?` (positional parameter placeholder)
    Question,
}

impl Token<'_> {
    /// True when the token is the keyword `kw`, given in lower case (words
    /// are lexed lower-cased, so the match is case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s == kw)
    }

    /// Identifier text if this token can serve as an identifier.
    pub fn ident_text(&self) -> Option<&str> {
        match self {
            Token::Ident(s) | Token::QuotedIdent(s) => Some(s),
            _ => None,
        }
    }
}

/// Keywords the statements SQLoop sends spell in upper case, the most
/// frequent first: they lex without a lower-cased copy.
const KEYWORDS: [&str; 56] = [
    "select", "from", "where", "and", "as", "union", "all", "on", "join", "left", "group", "by",
    "update", "set", "insert", "into", "values", "delete", "create", "table", "index", "drop",
    "if", "exists", "not", "null", "or", "is", "in", "distinct", "order", "limit", "case", "when",
    "then", "else", "end", "least", "greatest", "min", "max", "sum", "count", "avg", "coalesce",
    "infinity", "int", "float", "text", "primary", "key", "view", "begin", "commit", "rollback",
    "truncate",
];

/// An unquoted word, lower-cased.
fn word(text: &str) -> Cow<'_, str> {
    if !text.bytes().any(|b| b.is_ascii_uppercase()) {
        return Cow::Borrowed(text);
    }
    match KEYWORDS.iter().find(|k| k.eq_ignore_ascii_case(text)) {
        Some(k) => Cow::Borrowed(k),
        None => Cow::Owned(text.to_ascii_lowercase()),
    }
}

/// Tokenizes `input` into a vector of tokens.
///
/// Comments (`-- …` to end of line, `/* … */`) are skipped.
///
/// # Errors
/// Returns [`DbError::Parse`] on unterminated strings/comments or unexpected
/// characters.
pub fn tokenize(input: &str) -> DbResult<Vec<Token<'_>>> {
    // SQL text averages a little over four bytes per token
    let mut tokens = Vec::with_capacity(input.len() / 4 + 1);
    let bytes = input.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(DbError::Parse(format!(
                            "unterminated block comment at byte {start}"
                        )));
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_quoted(input, i)?;
                tokens.push(Token::Str(s));
                i = next;
            }
            '"' | '`' => {
                let (s, next) = lex_quoted(input, i)?;
                tokens.push(Token::QuotedIdent(
                    match s.bytes().any(|b| b.is_ascii_uppercase()) {
                        true => Cow::Owned(s.to_ascii_lowercase()),
                        false => s,
                    },
                ));
                i = next;
            }
            '(' => push_sym(&mut tokens, Sym::LParen, &mut i),
            ')' => push_sym(&mut tokens, Sym::RParen, &mut i),
            ',' => push_sym(&mut tokens, Sym::Comma, &mut i),
            ';' => push_sym(&mut tokens, Sym::Semicolon, &mut i),
            '+' => push_sym(&mut tokens, Sym::Plus, &mut i),
            '-' => push_sym(&mut tokens, Sym::Minus, &mut i),
            '*' => push_sym(&mut tokens, Sym::Star, &mut i),
            '/' => push_sym(&mut tokens, Sym::Slash, &mut i),
            '%' => push_sym(&mut tokens, Sym::Percent, &mut i),
            '=' => push_sym(&mut tokens, Sym::Eq, &mut i),
            '?' => push_sym(&mut tokens, Sym::Question, &mut i),
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Symbol(Sym::NotEq));
                    i += 2;
                } else {
                    return Err(DbError::Parse(format!("unexpected '!' at byte {i}")));
                }
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    tokens.push(Token::Symbol(Sym::LtEq));
                    i += 2;
                }
                Some(&b'>') => {
                    tokens.push(Token::Symbol(Sym::NotEq));
                    i += 2;
                }
                _ => push_sym(&mut tokens, Sym::Lt, &mut i),
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Symbol(Sym::GtEq));
                    i += 2;
                } else {
                    push_sym(&mut tokens, Sym::Gt, &mut i);
                }
            }
            '|' => {
                if bytes.get(i + 1) == Some(&b'|') {
                    tokens.push(Token::Symbol(Sym::Concat));
                    i += 2;
                } else {
                    return Err(DbError::Parse(format!("unexpected '|' at byte {i}")));
                }
            }
            '.' => {
                // could be a float like .5 or a dot
                if bytes
                    .get(i + 1)
                    .map(|b| (*b as char).is_ascii_digit())
                    .unwrap_or(false)
                {
                    let (tok, next) = lex_number(input, i)?;
                    tokens.push(tok);
                    i = next;
                } else {
                    push_sym(&mut tokens, Sym::Dot, &mut i);
                }
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(input, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i] as char;
                    if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(word(&input[start..i])));
            }
            other => {
                return Err(DbError::Parse(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
    }
    Ok(tokens)
}

fn push_sym(tokens: &mut Vec<Token<'_>>, sym: Sym, i: &mut usize) {
    tokens.push(Token::Symbol(sym));
    *i += 1;
}

/// The body of the token quoted by the byte at `start`, and the byte after
/// its closing quote. A doubled quote stands for one quote character; only
/// a body that contains one is copied, any other is a slice of `input`.
fn lex_quoted(input: &str, start: usize) -> DbResult<(Cow<'_, str>, usize)> {
    let bytes = input.as_bytes();
    let q = bytes[start];
    let mut unescaped: Option<String> = None;
    // the quote is ASCII, so it never occurs inside a multi-byte character
    let (mut from, mut i) = (start + 1, start + 1);
    while i < bytes.len() {
        if bytes[i] != q {
            i += 1;
        } else if bytes.get(i + 1) == Some(&q) {
            unescaped
                .get_or_insert_with(String::new)
                .push_str(&input[from..=i]);
            i += 2;
            from = i;
        } else {
            let body = match unescaped {
                None => Cow::Borrowed(&input[from..i]),
                Some(mut s) => {
                    s.push_str(&input[from..i]);
                    Cow::Owned(s)
                }
            };
            return Ok((body, i + 1));
        }
    }
    Err(DbError::Parse(format!(
        "unterminated {}-quoted token at byte {start}",
        q as char
    )))
}

fn lex_number(input: &str, start: usize) -> DbResult<(Token<'static>, usize)> {
    let bytes = input.as_bytes();
    let mut i = start;
    let mut is_float = false;
    while i < bytes.len() {
        match bytes[i] as char {
            c if c.is_ascii_digit() => i += 1,
            '.' if !is_float => {
                is_float = true;
                i += 1;
            }
            'e' | 'E' => {
                is_float = true;
                i += 1;
                if matches!(bytes.get(i), Some(b'+') | Some(b'-')) {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    let text = &input[start..i];
    if is_float {
        text.parse::<f64>()
            .map(|f| (Token::Float(f), i))
            .map_err(|_| DbError::Parse(format!("bad float literal '{text}'")))
    } else {
        match text.parse::<i64>() {
            Ok(v) => Ok((Token::Int(v), i)),
            // fall back to float for out-of-range integers
            Err(_) => text
                .parse::<f64>()
                .map(|f| (Token::Float(f), i))
                .map_err(|_| DbError::Parse(format!("bad numeric literal '{text}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token<'_>> {
        tokenize(s).unwrap()
    }

    #[test]
    fn keywords_lowercased() {
        let t = lex("SELECT Foo FROM Bar");
        assert_eq!(t[0], Token::Ident("select".into()));
        assert_eq!(t[1], Token::Ident("foo".into()));
    }

    #[test]
    fn numbers() {
        assert_eq!(lex("42"), vec![Token::Int(42)]);
        assert_eq!(lex("0.85"), vec![Token::Float(0.85)]);
        assert_eq!(lex("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(lex(".5"), vec![Token::Float(0.5)]);
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(lex("'it''s'"), vec![Token::Str("it's".into())]);
    }

    #[test]
    fn quoted_identifiers_both_dialects() {
        assert_eq!(lex("\"MyCol\""), vec![Token::QuotedIdent("mycol".into())]);
        assert_eq!(lex("`MyCol`"), vec![Token::QuotedIdent("mycol".into())]);
    }

    #[test]
    fn quoted_identifiers_resolve_doubled_quotes_and_keep_non_ascii() {
        let quoted = |s: &str| match &lex(s)[..] {
            [Token::QuotedIdent(q)] => q.to_string(),
            other => panic!("{s}: {other:?}"),
        };
        assert_eq!(quoted("\"a\"\"b\""), "a\"b");
        assert_eq!(quoted("`a``b`"), "a`b");
        assert_eq!(quoted("\"\"\"\""), "\"");
        assert_eq!(quoted("`Mixed Case`"), "mixed case");
        assert_eq!(quoted("\"ÜBER ∞ Straße\""), "Über ∞ straße");
        assert_eq!(quoted("\"x\"\"Y\"\"z\""), "x\"y\"z");
        // the other dialect's quote is an ordinary character inside
        assert_eq!(quoted("`a\"b`"), "a\"b");
        assert!(
            tokenize("\"a\"\"").is_err(),
            "a doubled quote does not close"
        );
        assert!(tokenize("`ab").is_err());
    }

    #[test]
    fn words_are_lower_cased_whether_keywords_or_not() {
        assert_eq!(
            lex("SeLeCt MyCol FROM_X Rollback truncate GREATEST"),
            ["select", "mycol", "from_x", "rollback", "truncate", "greatest"]
                .map(|w| Token::Ident(w.into()))
        );
    }

    #[test]
    fn comments_skipped() {
        let t = lex("SELECT 1 -- trailing\n/* block */ + 2");
        assert_eq!(
            t,
            vec![
                Token::Ident("select".into()),
                Token::Int(1),
                Token::Symbol(Sym::Plus),
                Token::Int(2)
            ]
        );
    }

    #[test]
    fn comparison_operators() {
        let t = lex("a <> b != c <= d >= e");
        let syms: Vec<_> = t
            .iter()
            .filter_map(|t| match t {
                Token::Symbol(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(syms, vec![Sym::NotEq, Sym::NotEq, Sym::LtEq, Sym::GtEq]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'oops").is_err());
        assert!(tokenize("/* oops").is_err());
    }

    #[test]
    fn concat_operator() {
        assert_eq!(lex("a || b")[1], Token::Symbol(Sym::Concat));
        assert!(tokenize("a | b").is_err());
    }
}
