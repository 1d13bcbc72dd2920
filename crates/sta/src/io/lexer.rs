//! The one tokenizer behind all four text formats: libraries, netlists,
//! contexts and macro models.
//!
//! Token classes: bare identifiers (`cell`, `negative_unate`), quoted
//! strings (`"u1/A"`), numbers (`-3.5e2`), and single-character punctuation
//! (`{ } [ ] ; -> is two tokens`). `#` starts a comment to end of line.
//!
//! The lexer scans the source bytes in one pass and yields tokens on
//! demand, holding exactly one token of lookahead. Identifiers and strings
//! borrow their text from the source; numbers are read by
//! [`super::read_f64`], which scans the token and gives the exact bits
//! `f64::from_str` would for its text, so every value is the one the
//! writer printed. [`Lexer::number_list_into`] reads a `[ n n .. ]` list
//! straight from the byte cursor, without a lookahead token per value.
//! Nothing is collected up front, so a malformed number or an unclosed
//! string is reported when the parser reaches it, at the line it starts
//! on. Until then it blocks the stream: [`Lexer::at_end`] stays false, so
//! no document that contains one parses.

use super::float_parse::{read_f64, read_strict};
use crate::{Result, StaError};

/// One lexical token, borrowing its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// Bare identifier / keyword.
    Ident(&'a str),
    /// Quoted string (quotes stripped; no escape sequences).
    Str(&'a str),
    /// Numeric literal.
    Num(f64),
    /// Single punctuation character: `{ } [ ] ; > -` etc.
    Punct(char),
}

impl Token<'_> {
    fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("identifier `{s}`"),
            Token::Str(s) => format!("string \"{s}\""),
            Token::Num(n) => format!("number {n}"),
            Token::Punct(c) => format!("`{c}`"),
        }
    }
}

/// Whether a number token starts at byte `c`, followed by `next`: a
/// digit, or a sign or `.` before a digit (a sign also before `.`).
fn starts_number(c: u8, next: Option<u8>) -> bool {
    c.is_ascii_digit()
        || (matches!(c, b'-' | b'+') && next.is_some_and(|n| n.is_ascii_digit() || n == b'.'))
        || (c == b'.' && next.is_some_and(|n| n.is_ascii_digit()))
}

/// What the scanner found next: a token, or a lexing error held until the
/// parser asks for it.
#[derive(Debug, Clone, Copy)]
enum Lexeme<'a> {
    Token(Token<'a>),
    MalformedNumber(&'a str),
    UnclosedString,
}

/// Token stream over a source text with single-token lookahead.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the scanner; always on a char boundary.
    pos: usize,
    /// Line of the scanner at `pos`.
    scan_line: usize,
    /// The next lexeme, or `None` at end of input.
    ahead: Option<Lexeme<'a>>,
    /// Line of `ahead`; at end of input, of the last lexeme (0 if none).
    ahead_line: usize,
    /// Byte offset where `ahead` starts (the source length at its end).
    ahead_pos: usize,
}

/// Source text saved by [`Lexer::save_text_since`] for
/// [`Lexer::eat_saved`]: empty, or whole tokens on one line with no
/// comment or string, ending in a space or tab.
#[derive(Debug, Default)]
pub(super) struct SavedText(String);

impl<'a> Lexer<'a> {
    /// Starts tokenizing `src`. Lexing errors surface from the token
    /// accessors when the parser reaches them.
    #[must_use]
    pub fn new(src: &'a str) -> Self {
        let mut lx = Lexer { src, pos: 0, scan_line: 1, ahead: None, ahead_line: 0, ahead_pos: 0 };
        lx.ahead = lx.scan();
        lx
    }

    /// Scans the lexeme at `pos` and records its line in `ahead_line`.
    fn scan(&mut self) -> Option<Lexeme<'a>> {
        let src = self.src;
        let bytes = src.as_bytes();
        let find =
            |from: usize, b: u8| bytes[from..].iter().position(|&c| c == b).map(|i| from + i);
        let c = loop {
            let Some(&c) = bytes.get(self.pos) else {
                self.ahead_pos = self.pos;
                return None;
            };
            match c {
                b'\n' => {
                    self.scan_line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'#' => self.pos = find(self.pos, b'\n').unwrap_or(bytes.len()),
                _ => break c,
            }
        };
        self.ahead_line = self.scan_line;
        // Every cut below is next to an ASCII byte or at the end of the
        // source, so all slices fall on char boundaries.
        let start = self.pos;
        self.ahead_pos = start;
        let lexeme = if starts_number(c, bytes.get(start + 1).copied()) {
            match read_f64(&src[start..]) {
                (Some(value), len) => {
                    self.pos = start + len;
                    Lexeme::Token(Token::Num(value))
                }
                (None, len) => return Some(Lexeme::MalformedNumber(&src[start..start + len])),
            }
        } else if c.is_ascii_alphabetic() || c == b'_' {
            let mut end = start + 1;
            while bytes.get(end).is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_') {
                end += 1;
            }
            self.pos = end;
            Lexeme::Token(Token::Ident(&src[start..end]))
        } else if c == b'"' {
            let Some(close) = find(start + 1, b'"') else {
                return Some(Lexeme::UnclosedString);
            };
            let body = &src[start + 1..close];
            self.scan_line += body.bytes().filter(|&b| b == b'\n').count();
            self.pos = close + 1;
            Lexeme::Token(Token::Str(body))
        } else if c.is_ascii() {
            self.pos += 1;
            Lexeme::Token(Token::Punct(char::from(c)))
        } else {
            let ch = src[start..].chars().next()?;
            self.pos += ch.len_utf8();
            Lexeme::Token(Token::Punct(ch))
        };
        Some(lexeme)
    }

    /// Line of the next token, or of the last token at end of input (for
    /// error construction by parsers).
    #[must_use]
    pub fn line(&self) -> usize {
        self.ahead_line
    }

    /// Builds a parse error at the current position.
    #[must_use]
    pub fn error(&self, message: impl Into<String>) -> StaError {
        StaError::ParseFormat { line: self.line(), message: message.into() }
    }

    /// Peeks the next token without consuming it (`None` at end of input
    /// or before a lexing error).
    #[must_use]
    pub fn peek(&self) -> Option<Token<'a>> {
        match self.ahead {
            Some(Lexeme::Token(t)) => Some(t),
            _ => None,
        }
    }

    /// Consumes and returns the next token.
    ///
    /// # Errors
    ///
    /// Fails at end of input, and on a malformed number or unclosed
    /// string, which stays pending: every later call fails the same way.
    fn next_token(&mut self) -> Result<Token<'a>> {
        match self.ahead {
            Some(Lexeme::Token(t)) => {
                self.ahead = self.scan();
                Ok(t)
            }
            Some(Lexeme::MalformedNumber(s)) => Err(self.error(format!("malformed number `{s}`"))),
            Some(Lexeme::UnclosedString) => Err(self.error("unclosed string literal")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// `true` when all tokens are consumed; `false` while a lexing error
    /// is pending.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.ahead.is_none()
    }

    /// Consumes an identifier token and returns its text.
    ///
    /// # Errors
    ///
    /// Fails if the next token is not an identifier.
    pub fn ident(&mut self) -> Result<&'a str> {
        match self.next_token()? {
            Token::Ident(s) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {}", other.describe()))),
        }
    }

    /// Consumes a specific keyword.
    ///
    /// # Errors
    ///
    /// Fails if the next token is not `kw`.
    pub fn expect_ident(&mut self, kw: &str) -> Result<()> {
        let s = self.ident()?;
        if s == kw {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{s}`")))
        }
    }

    /// Consumes a quoted string and returns its text.
    ///
    /// # Errors
    ///
    /// Fails if the next token is not a string.
    pub fn string(&mut self) -> Result<&'a str> {
        match self.next_token()? {
            Token::Str(s) => Ok(s),
            other => Err(self.error(format!("expected string, found {}", other.describe()))),
        }
    }

    /// Consumes a number.
    ///
    /// # Errors
    ///
    /// Fails if the next token is not a number.
    pub fn number(&mut self) -> Result<f64> {
        match self.next_token()? {
            Token::Num(n) => Ok(n),
            other => Err(self.error(format!("expected number, found {}", other.describe()))),
        }
    }

    /// Consumes a number that must be a non-negative integer representable
    /// as `T`: the reader for every id, index and count field.
    ///
    /// # Errors
    ///
    /// Fails, at the number's line, if the next token is not a number or
    /// is negative, fractional, non-finite or out of `T`'s range.
    pub fn unsigned<T: TryFrom<u64>>(&mut self) -> Result<T> {
        let line = self.line();
        let v = self.number()?;
        // 2^64 is the least f64 above `u64::MAX`; below it the cast is exact.
        if v >= 0.0 && v.fract() == 0.0 && v < 18_446_744_073_709_551_616.0 {
            if let Ok(n) = T::try_from(v as u64) {
                return Ok(n);
            }
        }
        Err(StaError::ParseFormat {
            line,
            message: format!(
                "expected a non-negative integer within {} range, found {v}",
                std::any::type_name::<T>()
            ),
        })
    }

    /// Consumes a specific punctuation character.
    ///
    /// # Errors
    ///
    /// Fails if the next token is not `c`.
    pub fn expect_punct(&mut self, c: char) -> Result<()> {
        match self.next_token()? {
            Token::Punct(p) if p == c => Ok(()),
            other => Err(self.error(format!("expected `{c}`, found {}", other.describe()))),
        }
    }

    /// Consumes `c` if it is next; returns whether it did.
    pub fn eat_punct(&mut self, c: char) -> bool {
        let hit = matches!(self.peek(), Some(Token::Punct(p)) if p == c);
        if hit {
            self.ahead = self.scan();
        }
        hit
    }

    /// Consumes the keyword `kw` if it is next; returns whether it did.
    pub fn eat_ident(&mut self, kw: &str) -> bool {
        let hit = matches!(self.peek(), Some(Token::Ident(s)) if s == kw);
        if hit {
            self.ahead = self.scan();
        }
        hit
    }

    /// Parses a `[ item item ... ]` list, reading each item with `item`.
    ///
    /// # Errors
    ///
    /// Fails on malformed lists or items.
    pub fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        self.expect_punct('[')?;
        let mut out = Vec::new();
        while !self.eat_punct(']') {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// Parses a `[ n n n ]` numeric list, appending its values to `out`.
    ///
    /// Values separated by spaces or tabs on one line are read straight
    /// from the byte cursor, with no lookahead token per value; at a line
    /// break, a comment or anything else the list continues token by
    /// token, so values, [`Lexer::line`] and errors are those of reading
    /// `[`, then [`Lexer::number`] until `]`.
    ///
    /// # Errors
    ///
    /// Fails on malformed lists or numbers.
    pub fn number_list_into(&mut self, out: &mut Vec<f64>) -> Result<()> {
        if !matches!(self.ahead, Some(Lexeme::Token(Token::Punct('[')))) {
            return self.expect_punct('[');
        }
        // `ahead` is the `[` and `pos` is just past it.
        let bytes = self.src.as_bytes();
        let mut pos = self.pos;
        loop {
            match bytes.get(pos) {
                Some(b' ' | b'\t' | b'\r') => pos += 1,
                Some(b']') => {
                    self.pos = pos + 1;
                    self.ahead = self.scan();
                    return Ok(());
                }
                Some(&c) if starts_number(c, bytes.get(pos + 1).copied()) => {
                    let Some((value, len)) = read_strict(&bytes[pos..]) else { break };
                    out.push(value);
                    pos += len;
                }
                _ => break,
            }
        }
        self.pos = pos;
        self.ahead = self.scan();
        while !self.eat_punct(']') {
            out.push(self.number()?);
        }
        Ok(())
    }

    /// Where the next token starts, for [`Lexer::save_text_since`].
    pub(super) fn mark(&self) -> usize {
        self.ahead_pos
    }

    /// Saves the source from `mark` (an earlier [`Lexer::mark`]) up to the
    /// next token into `saved`, when it lies on one line with no comment
    /// or string and ends in a space or tab; clears `saved` otherwise.
    pub(super) fn save_text_since(&self, mark: usize, saved: &mut SavedText) {
        let text = &self.src[mark..self.ahead_pos];
        saved.0.clear();
        if text.ends_with([' ', '\t']) && !text.contains(['\n', '#', '"']) {
            saved.0.push_str(text);
        }
    }

    /// Consumes the tokens of `saved` if the source continues with that
    /// text at the next token, and returns whether it did. Scanning is
    /// context-free from a token start, so the same bytes are the same
    /// tokens, and with no line break in them `line()` stays exact.
    pub(super) fn eat_saved(&mut self, saved: &SavedText) -> bool {
        let text = saved.0.as_bytes();
        let hit = !text.is_empty()
            && matches!(self.ahead, Some(Lexeme::Token(_)))
            && self.src.as_bytes()[self.ahead_pos..].starts_with(text);
        if hit {
            self.pos = self.ahead_pos + text.len();
            self.ahead = self.scan();
        }
        hit
    }

    /// Parses a `[ "s" "s" ]` string list.
    ///
    /// # Errors
    ///
    /// Fails on malformed lists.
    pub fn string_list(&mut self) -> Result<Vec<&'a str>> {
        self.list(Self::string)
    }

    /// Requires the end of input after a complete document.
    ///
    /// # Errors
    ///
    /// Returns a pending lexing error, or "trailing content after `what`".
    pub fn expect_end(&mut self, what: &str) -> Result<()> {
        match self.ahead {
            None => Ok(()),
            Some(Lexeme::Token(_)) => Err(self.error(format!("trailing content after {what}"))),
            Some(_) => self.next_token().map(|_| ()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `src` to its first error and returns it.
    fn first_error(src: &str) -> StaError {
        let mut lx = Lexer::new(src);
        loop {
            if let Err(e) = lx.next_token() {
                return e;
            }
        }
    }

    #[test]
    fn tokenizes_mixed_input() {
        let mut lx = Lexer::new("cell \"u1/A\" 3.5 { } [1 -2e1] # comment\nnext");
        assert_eq!(lx.ident().unwrap(), "cell");
        assert_eq!(lx.string().unwrap(), "u1/A");
        assert_eq!(lx.number().unwrap(), 3.5);
        lx.expect_punct('{').unwrap();
        lx.expect_punct('}').unwrap();
        let mut list = vec![7.0];
        lx.number_list_into(&mut list).unwrap();
        assert_eq!(list, vec![7.0, 1.0, -20.0]);
        assert_eq!(lx.ident().unwrap(), "next");
        assert!(lx.at_end());
    }

    #[test]
    fn reports_line_numbers() {
        let mut lx = first_error("a\nb\nc 1.5.5.5");
        if let StaError::ParseFormat { line, .. } = lx {
            assert_eq!(line, 3);
        } else {
            panic!("wrong error kind");
        }
        lx = first_error("\"unclosed");
        assert!(matches!(lx, StaError::ParseFormat { line: 1, .. }));
    }

    #[test]
    fn pending_lex_error_blocks_the_end_and_sticks() {
        let mut lx = Lexer::new("a 1e+ b");
        assert_eq!(lx.ident().unwrap(), "a");
        assert!(!lx.at_end());
        assert_eq!(lx.peek(), None);
        assert!(!lx.eat_ident("b"));
        for _ in 0..2 {
            let err = lx.next_token().unwrap_err().to_string();
            assert!(err.contains("malformed number `1e+`"), "{err}");
        }
        assert!(lx.expect_end("x").unwrap_err().to_string().contains("malformed"));
    }

    #[test]
    fn unsigned_accepts_only_in_range_integers() {
        let mut lx = Lexer::new("0 7 -0 4294967295 4294967296 1.5 -3 1e400 x");
        assert_eq!(lx.unsigned::<u32>().unwrap(), 0);
        assert_eq!(lx.unsigned::<usize>().unwrap(), 7);
        assert_eq!(lx.unsigned::<u32>().unwrap(), 0);
        assert_eq!(lx.unsigned::<u32>().unwrap(), u32::MAX);
        for _ in 0..4 {
            assert!(matches!(lx.unsigned::<u32>(), Err(StaError::ParseFormat { line: 1, .. })));
        }
        assert!(lx.unsigned::<u64>().is_err());
    }

    #[test]
    fn negative_numbers_and_punct_minus() {
        let mut lx = Lexer::new("-1.5 a->b");
        assert_eq!(lx.number().unwrap(), -1.5);
        assert_eq!(lx.ident().unwrap(), "a");
        lx.expect_punct('-').unwrap();
        lx.expect_punct('>').unwrap();
        assert_eq!(lx.ident().unwrap(), "b");
    }

    #[test]
    fn eat_variants_do_not_consume_on_mismatch() {
        let mut lx = Lexer::new("alpha ;");
        assert!(!lx.eat_punct(';'));
        assert!(lx.eat_ident("alpha"));
        assert!(lx.eat_punct(';'));
        assert!(lx.at_end());
    }

    #[test]
    fn comments_span_to_end_of_line() {
        let mut lx = Lexer::new("x # everything here is ignored \" { \ny");
        assert_eq!(lx.ident().unwrap(), "x");
        assert_eq!(lx.ident().unwrap(), "y");
    }

    #[test]
    fn string_list_round_trip() {
        let mut lx = Lexer::new("[\"a\" \"b/C\"]");
        assert_eq!(lx.string_list().unwrap(), vec!["a", "b/C"]);
    }

    #[test]
    fn error_at_end_of_input() {
        let mut lx = Lexer::new("x");
        lx.ident().unwrap();
        assert!(lx.ident().is_err());
    }

    /// The eager `Vec<char>` tokenizer the lazy lexer replaced, kept as the
    /// differential reference. It returns the tokens before the first
    /// error, and that error's line and message.
    mod reference {
        #[derive(Debug, Clone, PartialEq)]
        pub enum Tok {
            Ident(String),
            Str(String),
            /// `f64::to_bits` of the value.
            Num(u64),
            Punct(char),
        }

        pub type Lexed = (Vec<(Tok, usize)>, Option<(usize, String)>);

        pub fn tokenize(src: &str) -> Lexed {
            let mut tokens = Vec::new();
            let mut line = 1usize;
            let bytes: Vec<char> = src.chars().collect();
            let mut i = 0usize;
            while i < bytes.len() {
                let c = bytes[i];
                match c {
                    '\n' => {
                        line += 1;
                        i += 1;
                    }
                    ' ' | '\t' | '\r' => i += 1,
                    '#' => {
                        while i < bytes.len() && bytes[i] != '\n' {
                            i += 1;
                        }
                    }
                    '"' => {
                        let start_line = line;
                        i += 1;
                        let mut s = String::new();
                        while i < bytes.len() && bytes[i] != '"' {
                            if bytes[i] == '\n' {
                                line += 1;
                            }
                            s.push(bytes[i]);
                            i += 1;
                        }
                        if i == bytes.len() {
                            return (tokens, Some((start_line, "unclosed string literal".into())));
                        }
                        i += 1; // closing quote
                        tokens.push((Tok::Str(s), start_line));
                    }
                    c if c.is_ascii_alphabetic() || c == '_' => {
                        let mut s = String::new();
                        while i < bytes.len()
                            && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_')
                        {
                            s.push(bytes[i]);
                            i += 1;
                        }
                        tokens.push((Tok::Ident(s), line));
                    }
                    c if c.is_ascii_digit()
                        || ((c == '-' || c == '+')
                            && i + 1 < bytes.len()
                            && (bytes[i + 1].is_ascii_digit() || bytes[i + 1] == '.'))
                        || (c == '.' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit()) =>
                    {
                        let mut s = String::new();
                        s.push(c);
                        i += 1;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_digit()
                                || matches!(bytes[i], '.' | 'e' | 'E' | '+' | '-'))
                        {
                            // `+`/`-` only valid right after an exponent marker
                            if matches!(bytes[i], '+' | '-')
                                && !matches!(s.chars().last(), Some('e') | Some('E'))
                            {
                                break;
                            }
                            s.push(bytes[i]);
                            i += 1;
                        }
                        match s.parse::<f64>() {
                            Ok(value) => tokens.push((Tok::Num(value.to_bits()), line)),
                            Err(_) => {
                                return (tokens, Some((line, format!("malformed number `{s}`"))))
                            }
                        }
                    }
                    _ => {
                        tokens.push((Tok::Punct(c), line));
                        i += 1;
                    }
                }
            }
            (tokens, None)
        }
    }

    /// Runs the lazy lexer over `src` in the reference's shape, checking
    /// on the way that `line()` is the line of the token about to be read.
    fn lazy(src: &str) -> reference::Lexed {
        use reference::Tok;
        let mut lx = Lexer::new(src);
        let mut tokens = Vec::new();
        while !lx.at_end() {
            let line = lx.line();
            let tok = match lx.next_token() {
                Ok(Token::Ident(s)) => Tok::Ident(s.to_owned()),
                Ok(Token::Str(s)) => Tok::Str(s.to_owned()),
                Ok(Token::Num(n)) => Tok::Num(n.to_bits()),
                Ok(Token::Punct(c)) => Tok::Punct(c),
                Err(StaError::ParseFormat { line: at, message }) => {
                    assert_eq!(at, line, "error line differs from line() on {src:?}");
                    return (tokens, Some((at, message)));
                }
                Err(other) => panic!("unexpected error kind {other} on {src:?}"),
            };
            tokens.push((tok, line));
        }
        // At end of input `line()` falls back to the last token's line.
        let last = tokens.last().map_or(0, |&(_, l)| l);
        assert_eq!(lx.line(), last, "end-of-input line differs on {src:?}");
        (tokens, None)
    }

    /// Characters that exercise every branch of the scanner: number
    /// starts and continuations, strings, comments, identifiers, line
    /// breaks and multi-byte punctuation (including a byte-order mark).
    const ALPHABET: &[char] = &[
        '0', '1', '5', '9', '.', 'e', 'E', '+', '-', '"', '#', '_', 'a', 'x', 'Z', ' ', '\n', '\r',
        '\t', '{', ';', '>', 'é', '→', '🙂', '\u{feff}',
    ];

    /// SplitMix64 step, for drawing strings from one proptest seed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn lazy_lexer_matches_reference_on_fixed_edge_cases() {
        for src in [
            "",
            "# only a comment",
            "a\n\"multi\nline\" b",
            "1e5 1E-3 +.5 -.5e+2 .5 5. 1e 1e+ -. +- 1.5.5 1-2 3e-",
            "é→🙂\u{feff}x\"é\"#🙂\ny",
            "\"unclosed\nstring",
            "\r\n\t7;",
        ] {
            assert_eq!(lazy(src), reference::tokenize(src), "on {src:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 4096, ..Default::default() })]

        /// Same accept/reject, token kinds and texts, `f64` bits and lines
        /// as the eager reference tokenizer.
        #[test]
        fn lazy_lexer_matches_reference(seed in 0u64..u64::MAX, len in 0usize..48) {
            let mut state = seed;
            let src: String = (0..len)
                .map(|_| ALPHABET[(splitmix(&mut state) % ALPHABET.len() as u64) as usize])
                .collect();
            proptest::prop_assert_eq!(lazy(&src), reference::tokenize(&src), "on {:?}", src);
        }

        /// Scanning is context-free from a token start: lexing the source
        /// from any [`Lexer::mark`] on gives the rest of the stream (the
        /// same tokens and error message). `Lexer::eat_saved` relies on it.
        #[test]
        fn lexing_restarts_at_any_token_start(seed in 0u64..u64::MAX, len in 0usize..48) {
            let mut state = seed;
            let src: String = (0..len)
                .map(|_| ALPHABET[(splitmix(&mut state) % ALPHABET.len() as u64) as usize])
                .collect();
            let unlined = |(tokens, error): reference::Lexed| {
                let tokens: Vec<_> = tokens.into_iter().map(|(tok, _)| tok).collect();
                (tokens, error.map(|(_, message)| message))
            };
            let (all, error) = unlined(lazy(&src));
            let mut lx = Lexer::new(&src);
            for i in 0..=all.len() {
                let rest = unlined(lazy(&src[lx.mark()..]));
                proptest::prop_assert_eq!(rest, (all[i..].to_vec(), error.clone()), "on {:?}", src);
                if i < all.len() {
                    lx.next_token().unwrap();
                }
            }
        }

        /// `number_list_into` reads what `[`, then `number()` until `]`,
        /// reads: the same values, error message and line, and the same
        /// token and line after the list.
        #[test]
        fn list_reader_matches_token_reads(seed in 0u64..u64::MAX, len in 0usize..12) {
            let mut state = seed;
            let src = random_list(&mut state, len);
            proptest::prop_assert_eq!(list_fast(&src), list_by_tokens(&src), "on {:?}", src);
        }
    }

    /// A list's values as bits, the error (line and message) or the line
    /// and token that follow it.
    type ListRead = (Vec<u64>, std::result::Result<(usize, Option<String>), String>);

    fn list_outcome(lx: &Lexer<'_>, values: Vec<f64>, read: Result<()>) -> ListRead {
        let bits = values.into_iter().map(f64::to_bits).collect();
        let after = read.map(|()| (lx.line(), lx.peek().map(|t| format!("{t:?}"))));
        (bits, after.map_err(|e| e.to_string()))
    }

    fn list_fast(src: &str) -> ListRead {
        let mut lx = Lexer::new(src);
        let mut values = vec![];
        let read = lx.number_list_into(&mut values);
        list_outcome(&lx, values, read)
    }

    fn list_by_tokens(src: &str) -> ListRead {
        let mut lx = Lexer::new(src);
        let mut values = vec![];
        let mut read = || {
            lx.expect_punct('[')?;
            while !lx.eat_punct(']') {
                values.push(lx.number()?);
            }
            Ok(())
        };
        let read = read();
        list_outcome(&lx, values, read)
    }

    /// `[` (sometimes missing or late), then `len` items among numbers,
    /// malformed numbers, separators, line breaks, comments and stray
    /// tokens, then `]` (sometimes missing) and a tail.
    fn random_list(state: &mut u64, len: usize) -> String {
        const ITEMS: &[&str] = &[
            "1",
            "-2.5e-3",
            "+7",
            ".5",
            "5.",
            "0e0",
            "12345678901234567890123",
            "1.5.5",
            "1e+",
            "-.",
            "x",
            " ",
            "  ",
            "\t",
            "\r",
            "\n",
            "# note ] [ 3\n",
            "#",
            "\"s\"",
            "[",
            "é",
        ];
        let mut src = String::new();
        match splitmix(state) % 8 {
            0 => {}
            1 => src.push_str("\n ["),
            _ => src.push('['),
        }
        for _ in 0..len {
            if splitmix(state).is_multiple_of(3) {
                let v = f64::from_bits(splitmix(state));
                if v.is_finite() {
                    src.push_str(&format!(" {v:e}"));
                    continue;
                }
            }
            src.push(' ');
            src.push_str(ITEMS[(splitmix(state) % ITEMS.len() as u64) as usize]);
        }
        match splitmix(state) % 6 {
            0 => {}
            1 => src.push_str("\n]"),
            _ => src.push_str(" ]"),
        }
        const TAILS: &[&str] = &["", ";", " next", "\nnext", "1", "]"];
        src.push_str(TAILS[(splitmix(state) % TAILS.len() as u64) as usize]);
        src
    }

    #[test]
    fn list_reader_fixed_cases() {
        for src in [
            "[]",
            "[ 1 2 3 ] x",
            "[1 2\n3] x",
            "[ 1 # c ]\n 2 ]",
            "[ 1 1.5.5 ]",
            "[ 1 2",
            "[",
            "",
            "[ 1 x ]",
            "[ 1e400 -1e-400 ]",
            "[ 1.00000000000000000000000001 ]",
            "( 1 ]",
        ] {
            assert_eq!(list_fast(src), list_by_tokens(src), "on {src:?}");
        }
    }

    #[test]
    fn saved_text_skips_only_identical_single_line_tokens() {
        let mut saved = SavedText::default();
        let mut lx = Lexer::new("lut slew [ 1 2 ] values [ 3 ];\nlut slew [ 1 2 ] values [ 4 ];");
        assert!(!lx.eat_saved(&saved), "empty text never matches");
        let mark = lx.mark();
        lx.expect_ident("lut").unwrap();
        lx.expect_ident("slew").unwrap();
        lx.number_list_into(&mut vec![]).unwrap();
        lx.expect_ident("values").unwrap();
        lx.save_text_since(mark, &mut saved);
        assert_eq!(saved.0, "lut slew [ 1 2 ] values ");
        let mut values = vec![];
        lx.number_list_into(&mut values).unwrap();
        lx.expect_punct(';').unwrap();
        assert_eq!(lx.line(), 2);
        assert!(lx.eat_saved(&saved));
        assert_eq!(lx.line(), 2);
        lx.number_list_into(&mut values).unwrap();
        assert_eq!(values, vec![3.0, 4.0]);

        // A comment, a line break or a string in the span, or a span that
        // does not end in a space, is not saved.
        for src in ["a # c\n b", "a\n b", "a \"s\" b", "a[b"] {
            let mut lx = Lexer::new(src);
            let mark = lx.mark();
            lx.ident().unwrap();
            while !matches!(lx.peek(), Some(Token::Ident("b"))) {
                lx.next_token().unwrap();
            }
            lx.save_text_since(mark, &mut saved);
            assert!(saved.0.is_empty(), "on {src:?}");
        }
        // The same bytes at the next token, even when a longer word
        // follows them, are the same tokens.
        let mut lx = Lexer::new("a b a bc");
        let mark = lx.mark();
        lx.ident().unwrap();
        lx.save_text_since(mark, &mut saved);
        lx.ident().unwrap();
        assert!(lx.eat_saved(&saved));
        assert_eq!(lx.ident().unwrap(), "bc");
        assert!(!lx.eat_saved(&saved));
    }
}
