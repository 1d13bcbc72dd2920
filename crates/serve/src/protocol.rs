//! The framed serve protocol: newline-separated commands in a `POST /v1`
//! body, one response line per command, in order.
//!
//! Floats travel in two forms: plain decimal (`12.5`) or exact bit
//! pattern (`0x3ff0000000000000`). Responses always use the bit form so
//! clients can compare results bit-for-bit against a serial reference —
//! the whole point of the determinism contract.
//!
//! Commands:
//!
//! ```text
//! open <design>                          -> ok <sid>
//! close <sid>                            -> ok
//! at|rat|slack|slew <sid> <pin>          -> ok <e.rise> <e.fall> <l.rise> <l.fall>
//! setpi <sid> <idx> <at_e> <at_l> <slew> -> ok
//! setpoload <sid> <idx> <load>           -> ok
//! setporat <sid> <idx> <early> <late>    -> ok
//! eco <sid> resize <arc> <factor>        -> ok
//! eco <sid> buffer <arc> <name> <delay>  -> ok
//! eco <sid> delete <node>                -> ok
//! macroeval <sid>                        -> ok <worst_slack>
//! ping                                   -> ok
//! ```

use tmm_faults::eco::EcoEdit;
use tmm_sta::split::{Edge, Mode, Quad};

/// The timing quantity a point query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Arrival times.
    At,
    /// Required arrival times.
    Rat,
    /// Slack.
    Slack,
    /// Slews.
    Slew,
}

impl QueryKind {
    /// Every kind, in declaration order (`kind as usize` indexes it).
    pub const ALL: [QueryKind; 4] =
        [QueryKind::At, QueryKind::Rat, QueryKind::Slack, QueryKind::Slew];

    /// Wire/metric name of the kind.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::At => "at",
            QueryKind::Rat => "rat",
            QueryKind::Slack => "slack",
            QueryKind::Slew => "slew",
        }
    }
}

/// One parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Open a session on a pooled design.
    Open {
        /// Pool name of the design.
        design: String,
    },
    /// Close a session.
    Close {
        /// Session id.
        sid: u64,
    },
    /// Point query on a pin.
    Query {
        /// Session id.
        sid: u64,
        /// Quantity to read.
        kind: QueryKind,
        /// Pin name.
        pin: String,
    },
    /// Re-constrain one primary input.
    SetPi {
        /// Session id.
        sid: u64,
        /// PI index.
        idx: usize,
        /// Early arrival.
        at_early: f64,
        /// Late arrival.
        at_late: f64,
        /// Input slew.
        slew: f64,
    },
    /// Change one primary output's external load.
    SetPoLoad {
        /// Session id.
        sid: u64,
        /// PO index.
        idx: usize,
        /// New load.
        load: f64,
    },
    /// Change one primary output's required times.
    SetPoRat {
        /// Session id.
        sid: u64,
        /// PO index.
        idx: usize,
        /// Early required time.
        early: f64,
        /// Late required time.
        late: f64,
    },
    /// Apply one ECO edit to the session's overlay.
    Eco {
        /// Session id.
        sid: u64,
        /// The edit.
        edit: EcoEdit,
    },
    /// Evaluate the design's macro model under the session's context.
    MacroEval {
        /// Session id.
        sid: u64,
    },
    /// Liveness probe.
    Ping,
}

impl Command {
    /// The session a command addresses (`None` for `open`/`ping`, which
    /// the engine routes itself).
    #[must_use]
    pub fn sid(&self) -> Option<u64> {
        self.borrowed().sid()
    }

    /// The command with its text fields borrowed.
    #[must_use]
    pub fn borrowed(&self) -> CommandRef<'_> {
        match self {
            Command::Open { design } => CommandRef::Open { design },
            &Command::Close { sid } => CommandRef::Close { sid },
            Command::Query { sid, kind, pin } => CommandRef::Query { sid: *sid, kind: *kind, pin },
            &Command::SetPi { sid, idx, at_early, at_late, slew } => {
                CommandRef::SetPi { sid, idx, at_early, at_late, slew }
            }
            &Command::SetPoLoad { sid, idx, load } => CommandRef::SetPoLoad { sid, idx, load },
            &Command::SetPoRat { sid, idx, early, late } => {
                CommandRef::SetPoRat { sid, idx, early, late }
            }
            Command::Eco { sid, edit } => CommandRef::Eco { sid: *sid, edit: edit.into() },
            &Command::MacroEval { sid } => CommandRef::MacroEval { sid },
            Command::Ping => CommandRef::Ping,
        }
    }
}

/// A parsed command whose design, pin and buffer-name fields borrow the
/// command line: what [`parse_command_ref`] yields, and what the engine
/// executes. [`Command`] is its owned form.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field meanings as in `Command`
pub enum CommandRef<'a> {
    /// See [`Command::Open`].
    Open { design: &'a str },
    /// See [`Command::Close`].
    Close { sid: u64 },
    /// See [`Command::Query`].
    Query { sid: u64, kind: QueryKind, pin: &'a str },
    /// See [`Command::SetPi`].
    SetPi { sid: u64, idx: usize, at_early: f64, at_late: f64, slew: f64 },
    /// See [`Command::SetPoLoad`].
    SetPoLoad { sid: u64, idx: usize, load: f64 },
    /// See [`Command::SetPoRat`].
    SetPoRat { sid: u64, idx: usize, early: f64, late: f64 },
    /// See [`Command::Eco`].
    Eco { sid: u64, edit: EcoEditRef<'a> },
    /// See [`Command::MacroEval`].
    MacroEval { sid: u64 },
    /// See [`Command::Ping`].
    Ping,
}

impl CommandRef<'_> {
    /// The session a command addresses (`None` for `open`/`ping`).
    #[must_use]
    pub fn sid(&self) -> Option<u64> {
        match *self {
            CommandRef::Open { .. } | CommandRef::Ping => None,
            CommandRef::Close { sid }
            | CommandRef::Query { sid, .. }
            | CommandRef::SetPi { sid, .. }
            | CommandRef::SetPoLoad { sid, .. }
            | CommandRef::SetPoRat { sid, .. }
            | CommandRef::Eco { sid, .. }
            | CommandRef::MacroEval { sid } => Some(sid),
        }
    }

    /// The owned command.
    #[must_use]
    pub fn into_owned(self) -> Command {
        match self {
            CommandRef::Open { design } => Command::Open { design: design.to_string() },
            CommandRef::Close { sid } => Command::Close { sid },
            CommandRef::Query { sid, kind, pin } => {
                Command::Query { sid, kind, pin: pin.to_string() }
            }
            CommandRef::SetPi { sid, idx, at_early, at_late, slew } => {
                Command::SetPi { sid, idx, at_early, at_late, slew }
            }
            CommandRef::SetPoLoad { sid, idx, load } => Command::SetPoLoad { sid, idx, load },
            CommandRef::SetPoRat { sid, idx, early, late } => {
                Command::SetPoRat { sid, idx, early, late }
            }
            CommandRef::Eco { sid, edit } => Command::Eco { sid, edit: edit.into_owned() },
            CommandRef::MacroEval { sid } => Command::MacroEval { sid },
            CommandRef::Ping => Command::Ping,
        }
    }
}

/// An [`EcoEdit`] whose buffer name borrows the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // field meanings as in `EcoEdit`
pub enum EcoEditRef<'a> {
    /// See [`EcoEdit::CellResize`].
    CellResize { arc: u32, factor: f64 },
    /// See [`EcoEdit::BufferInsert`].
    BufferInsert { arc: u32, name: &'a str, wire_delay: f64 },
    /// See [`EcoEdit::CellDelete`].
    CellDelete { node: u32 },
}

impl EcoEditRef<'_> {
    /// The owned edit.
    #[must_use]
    pub fn into_owned(self) -> EcoEdit {
        match self {
            EcoEditRef::CellResize { arc, factor } => EcoEdit::CellResize { arc, factor },
            EcoEditRef::BufferInsert { arc, name, wire_delay } => {
                EcoEdit::BufferInsert { arc, name: name.to_string(), wire_delay }
            }
            EcoEditRef::CellDelete { node } => EcoEdit::CellDelete { node },
        }
    }
}

impl<'a> From<&'a EcoEdit> for EcoEditRef<'a> {
    fn from(edit: &'a EcoEdit) -> EcoEditRef<'a> {
        match edit {
            &EcoEdit::CellResize { arc, factor } => EcoEditRef::CellResize { arc, factor },
            EcoEdit::BufferInsert { arc, name, wire_delay } => {
                EcoEditRef::BufferInsert { arc: *arc, name, wire_delay: *wire_delay }
            }
            &EcoEdit::CellDelete { node } => EcoEditRef::CellDelete { node },
        }
    }
}

/// `HEX_PAIRS[b]` is byte `b` as two lower-case hex digits.
const HEX_PAIRS: [[u8; 2]; 256] = hex_pairs();

const fn hex_pairs() -> [[u8; 2]; 256] {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [DIGITS[b >> 4], DIGITS[b & 15]];
        b += 1;
    }
    table
}

/// Bytes of one float token: `0x` and 16 hex digits.
const F64_TOKEN: usize = 18;

/// Writes `v`'s bit-pattern token into `buf[..F64_TOKEN]`.
fn hex_token(v: f64, buf: &mut [u8]) {
    buf[..2].copy_from_slice(b"0x");
    for (i, byte) in v.to_bits().to_be_bytes().into_iter().enumerate() {
        buf[2 + 2 * i..4 + 2 * i].copy_from_slice(&HEX_PAIRS[usize::from(byte)]);
    }
}

fn push_ascii(out: &mut String, bytes: &[u8]) {
    // Callers write only hex digits, `x` and spaces, which are UTF-8.
    if let Ok(text) = std::str::from_utf8(bytes) {
        out.push_str(text);
    }
}

/// Appends a float as its exact bit pattern (`0x…`, 16 hex digits).
pub(crate) fn push_f64(out: &mut String, v: f64) {
    let mut buf = [0u8; F64_TOKEN];
    hex_token(v, &mut buf);
    push_ascii(out, &buf);
}

/// Appends a [`Quad`] as four space-separated bit-pattern tokens in the
/// canonical order `early.rise early.fall late.rise late.fall`.
pub(crate) fn push_quad(out: &mut String, q: Quad) {
    let mut buf = [b' '; 4 * (F64_TOKEN + 1) - 1];
    let mut at = 0;
    for mode in Mode::ALL {
        for edge in Edge::ALL {
            hex_token(q[mode][edge], &mut buf[at..at + F64_TOKEN]);
            at += F64_TOKEN + 1;
        }
    }
    push_ascii(out, &buf);
}

/// Renders a float as its exact bit pattern (`0x…`, 16 hex digits).
#[must_use]
pub fn format_f64(v: f64) -> String {
    let mut out = String::with_capacity(F64_TOKEN);
    push_f64(&mut out, v);
    out
}

/// Parses a float in either decimal or `0x…`-bits form.
///
/// # Errors
///
/// Returns a message naming the offending token.
pub fn parse_f64(tok: &str) -> Result<f64, String> {
    if let Some(hex) = tok.strip_prefix("0x") {
        let bits = u64::from_str_radix(hex, 16).map_err(|_| format!("bad f64 bits `{tok}`"))?;
        return Ok(f64::from_bits(bits));
    }
    tok.parse().map_err(|_| format!("bad f64 `{tok}`"))
}

/// Renders a [`Quad`] as four bit-pattern tokens in the canonical order
/// `early.rise early.fall late.rise late.fall`.
#[must_use]
pub fn format_quad(q: Quad) -> String {
    let mut out = String::with_capacity(4 * (F64_TOKEN + 1));
    push_quad(&mut out, q);
    out
}

/// Parses one command line (already newline-stripped, non-empty) into its
/// owned form: [`parse_command_ref`] plus copies of its text fields.
///
/// # Errors
///
/// Returns a message describing the malformed token.
pub fn parse_command(line: &str) -> Result<Command, String> {
    parse_command_ref(line).map(CommandRef::into_owned)
}

/// Parses one command line; design, pin and buffer names borrow `line`,
/// so a well-formed line allocates nothing. Tokens are separated by any
/// Unicode whitespace.
///
/// # Errors
///
/// Returns a message describing the malformed token.
pub fn parse_command_ref(line: &str) -> Result<CommandRef<'_>, String> {
    let mut tok = line.split_whitespace();
    let verb = tok.next().ok_or("empty command")?;
    let mut next = |what: &str| tok.next().ok_or_else(|| format!("{verb}: missing {what}"));
    let cmd = match verb {
        "ping" => CommandRef::Ping,
        "open" => CommandRef::Open { design: next("design")? },
        "close" => CommandRef::Close { sid: parse_u64(next("sid")?)? },
        "at" | "rat" | "slack" | "slew" => {
            let kind = match verb {
                "at" => QueryKind::At,
                "rat" => QueryKind::Rat,
                "slack" => QueryKind::Slack,
                _ => QueryKind::Slew,
            };
            CommandRef::Query { sid: parse_u64(next("sid")?)?, kind, pin: next("pin")? }
        }
        "setpi" => CommandRef::SetPi {
            sid: parse_u64(next("sid")?)?,
            idx: parse_u64(next("idx")?)? as usize,
            at_early: parse_f64(next("at_early")?)?,
            at_late: parse_f64(next("at_late")?)?,
            slew: parse_f64(next("slew")?)?,
        },
        "setpoload" => CommandRef::SetPoLoad {
            sid: parse_u64(next("sid")?)?,
            idx: parse_u64(next("idx")?)? as usize,
            load: parse_f64(next("load")?)?,
        },
        "setporat" => CommandRef::SetPoRat {
            sid: parse_u64(next("sid")?)?,
            idx: parse_u64(next("idx")?)? as usize,
            early: parse_f64(next("early")?)?,
            late: parse_f64(next("late")?)?,
        },
        "eco" => {
            let sid = parse_u64(next("sid")?)?;
            let op = next("op")?;
            let edit = match op {
                "resize" => EcoEditRef::CellResize {
                    arc: parse_u64(next("arc")?)? as u32,
                    factor: parse_f64(next("factor")?)?,
                },
                "buffer" => EcoEditRef::BufferInsert {
                    arc: parse_u64(next("arc")?)? as u32,
                    name: next("name")?,
                    wire_delay: parse_f64(next("wire_delay")?)?,
                },
                "delete" => {
                    EcoEditRef::CellDelete { node: parse_u64(next("node")?)? as u32 }
                }
                other => return Err(format!("eco: unknown op `{other}`")),
            };
            CommandRef::Eco { sid, edit }
        }
        "macroeval" => CommandRef::MacroEval { sid: parse_u64(next("sid")?)? },
        other => return Err(format!("unknown command `{other}`")),
    };
    if let Some(extra) = tok.next() {
        return Err(format!("{verb}: unexpected trailing `{extra}`"));
    }
    Ok(cmd)
}

/// Serialises a command back to its wire line (floats in bit form, so a
/// round trip is lossless).
#[must_use]
pub fn format_command(cmd: &Command) -> String {
    match cmd {
        Command::Ping => "ping".to_string(),
        Command::Open { design } => format!("open {design}"),
        Command::Close { sid } => format!("close {sid}"),
        Command::Query { sid, kind, pin } => format!("{} {sid} {pin}", kind.name()),
        Command::SetPi { sid, idx, at_early, at_late, slew } => format!(
            "setpi {sid} {idx} {} {} {}",
            format_f64(*at_early),
            format_f64(*at_late),
            format_f64(*slew)
        ),
        Command::SetPoLoad { sid, idx, load } => {
            format!("setpoload {sid} {idx} {}", format_f64(*load))
        }
        Command::SetPoRat { sid, idx, early, late } => {
            format!("setporat {sid} {idx} {} {}", format_f64(*early), format_f64(*late))
        }
        Command::Eco { sid, edit } => match edit {
            EcoEdit::CellResize { arc, factor } => {
                format!("eco {sid} resize {arc} {}", format_f64(*factor))
            }
            EcoEdit::BufferInsert { arc, name, wire_delay } => {
                format!("eco {sid} buffer {arc} {name} {}", format_f64(*wire_delay))
            }
            EcoEdit::CellDelete { node } => format!("eco {sid} delete {node}"),
        },
        Command::MacroEval { sid } => format!("macroeval {sid}"),
    }
}

fn parse_u64(tok: &str) -> Result<u64, String> {
    tok.parse().map_err(|_| format!("bad integer `{tok}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmm_sta::split::{Split, TransPair};

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1.0e-300, -7.25] {
            let tok = format_f64(v);
            let back = parse_f64(&tok).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{tok}");
        }
        assert_eq!(parse_f64("12.5").unwrap(), 12.5);
        assert!(parse_f64("0xzz").is_err());
        assert!(parse_f64("nope").is_err());
    }

    #[test]
    fn hex_writer_matches_std_formatting() {
        let mut bits = 0x0123_4567_89ab_cdefu64;
        let mut values = vec![0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, -7.25];
        for _ in 0..1000 {
            bits = bits
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            values.push(f64::from_bits(bits));
        }
        for v in values {
            assert_eq!(format_f64(v), format!("0x{:016x}", v.to_bits()));
            let q = Split::from_fn(|m| TransPair::from_fn(|e| v * (m as u8 + 2 * e as u8) as f64));
            let std_quad: Vec<String> = Mode::ALL
                .into_iter()
                .flat_map(|m| Edge::ALL.map(|e| format!("0x{:016x}", q[m][e].to_bits())))
                .collect();
            assert_eq!(format_quad(q), std_quad.join(" "));
        }
    }

    #[test]
    fn borrowed_and_owned_parses_agree() {
        for line in [
            "slack 3 u7/Z",
            "slack\u{a0}3\u{3000}u7/Z",
            "eco 3 buffer 9 eco_buf_0 0x4008000000000000",
            "open d1",
            "setporat 3 2 -4 880",
            "slack 3",
            "slack 3 u7/Z extra",
        ] {
            let owned = parse_command(line);
            let borrowed = parse_command_ref(line).map(CommandRef::into_owned);
            assert_eq!(owned, borrowed, "{line}");
            if let Ok(cmd) = owned {
                assert_eq!(cmd.borrowed().into_owned(), cmd, "{line}");
            }
        }
        assert_eq!(
            parse_command_ref("slack\u{a0}3\u{3000}u7/Z"),
            Ok(CommandRef::Query { sid: 3, kind: QueryKind::Slack, pin: "u7/Z" })
        );
    }

    #[test]
    fn commands_round_trip_through_the_wire_form() {
        let cmds = [
            Command::Ping,
            Command::Open { design: "d1" .to_string() },
            Command::Close { sid: 7 },
            Command::Query { sid: 3, kind: QueryKind::Slack, pin: "u7/Z".to_string() },
            Command::SetPi { sid: 3, idx: 1, at_early: 0.5, at_late: 2.5, slew: 9.0 },
            Command::SetPoLoad { sid: 3, idx: 0, load: 17.25 },
            Command::SetPoRat { sid: 3, idx: 2, early: -4.0, late: 880.0 },
            Command::Eco { sid: 3, edit: EcoEdit::CellResize { arc: 41, factor: 0.8 } },
            Command::Eco {
                sid: 3,
                edit: EcoEdit::BufferInsert {
                    arc: 9,
                    name: "eco_buf_0".to_string(),
                    wire_delay: 3.0,
                },
            },
            Command::Eco { sid: 3, edit: EcoEdit::CellDelete { node: 12 } },
            Command::MacroEval { sid: 3 },
        ];
        for cmd in cmds {
            let line = format_command(&cmd);
            let back = parse_command(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(cmd, back, "{line}");
        }
    }

    #[test]
    fn malformed_commands_are_rejected_with_context() {
        for bad in [
            "",
            "frobnicate 1",
            "open",
            "at 3",
            "slack x u/Z",
            "setpi 1 0 1.0 2.0",
            "eco 1 resize 5",
            "eco 1 warp 5 1.0",
            "ping extra",
        ] {
            assert!(parse_command(bad).is_err(), "`{bad}` should not parse");
        }
    }
}
