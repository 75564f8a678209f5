//! A SPICE-subset netlist parser.
//!
//! Supported cards (first letter selects the element, case-insensitive):
//!
//! ```text
//! Rname n+ n- value          resistor
//! Cname n+ n- value          capacitor
//! Lname n+ n- value          inductor
//! Vname n+ n- value          independent voltage source
//! Iname n+ n- value          independent current source
//! Gname n+ n- nc+ nc- gm     VCCS
//! Ename n+ n- nc+ nc- gain   VCVS
//! Fname n+ n- vname gain     CCCS
//! Hname n+ n- vname r        CCVS
//! * comment, .end / . cards ignored
//! ```
//!
//! Values accept engineering suffixes `T G MEG K M U N P F` (SPICE
//! conventions: `M` is milli, `MEG` is mega; suffixes are case-insensitive
//! and may be followed by trailing unit letters, e.g. `1pF`).

use crate::{Circuit, Element};
use std::fmt;

/// Error from [`parse_spice`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNetlistError {
    /// 1-based line number of the offending card.
    pub line: usize,
    /// Problem description.
    pub message: String,
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseNetlistError {}

/// Parses a numeric value with SPICE engineering suffixes.
///
/// # Examples
///
/// ```
/// use awesym_circuit::parse_value;
///
/// assert_eq!(parse_value("1k"), Some(1e3));
/// assert_eq!(parse_value("2.5meg"), Some(2.5e6));
/// assert_eq!(parse_value("10pF"), Some(10e-12));
/// assert_eq!(parse_value("3m"), Some(3e-3));
/// assert_eq!(parse_value("bogus"), None);
/// ```
pub fn parse_value(text: &str) -> Option<f64> {
    let t = text.trim();
    let b = t.as_bytes();
    // Split the longest numeric prefix: digits, points and signs, and an
    // exponent letter that follows a digit and precedes a digit or sign.
    // Every byte before the split is ASCII, so it falls on a char boundary.
    let mut seen_digit = false;
    let split = (0..b.len())
        .find(|&i| {
            let numeric = match b[i] {
                b'0'..=b'9' => {
                    seen_digit = true;
                    true
                }
                b'.' | b'+' | b'-' => true,
                b'e' | b'E' => {
                    seen_digit
                        && b.get(i + 1)
                            .is_some_and(|&c| c.is_ascii_digit() || c == b'+' || c == b'-')
                }
                _ => false,
            };
            !numeric
        })
        .unwrap_or(b.len());
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().ok()?;
    let s = suffix.as_bytes();
    let mult = match s.first().map(u8::to_ascii_lowercase) {
        None => 1.0,
        Some(b'm') if s.get(..3).is_some_and(|p| p.eq_ignore_ascii_case(b"meg")) => 1e6,
        Some(b't') => 1e12,
        Some(b'g') => 1e9,
        Some(b'k') => 1e3,
        Some(b'm') => 1e-3,
        Some(b'u') => 1e-6,
        Some(b'n') => 1e-9,
        Some(b'p') => 1e-12,
        Some(b'f') => 1e-15,
        // Trailing unit letters with no scale, e.g. "2.2ohm" → only units
        // that do not begin with a scale letter are accepted.
        Some(b'o' | b'v' | b'a' | b'h') if s.iter().all(u8::is_ascii_alphabetic) => 1.0,
        _ => return None,
    };
    Some(base * mult)
}

/// The most cards [`parse_spice`] reserves table room for before it has
/// read one: a text of many short bogus lines reserves no more than this
/// (about 9 MiB), and a longer netlist grows its tables as it goes.
const MAX_RESERVED_CARDS: usize = 1 << 16;

/// The most fields a card has (`G` and `E` cards); the fields of a
/// longer card are counted, not kept.
const MAX_FIELDS: usize = 6;

/// Parses a SPICE-subset netlist into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseNetlistError`] with the offending line number for unknown
/// cards, bad arity, unparseable values, or an element name already used.
pub fn parse_spice(text: &str) -> Result<Circuit, ParseNetlistError> {
    let is_card = |line: &str| !matches!(line.as_bytes().first(), None | Some(b'*' | b'.'));
    // Size the tables once: one element per card, and about half a new
    // node per card (cards share most nodes; a short guess only costs a
    // regrow). Nothing is checked yet, so the reservation is capped.
    let cards = text
        .lines()
        .filter(|l| is_card(l.trim_start()))
        .take(MAX_RESERVED_CARDS)
        .count();
    let mut c = Circuit::with_capacity(cards, cards / 2);
    // The card line of each element, by element id.
    let mut card_line: Vec<usize> = Vec::with_capacity(cards);
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if !is_card(line) {
            continue;
        }
        let mut toks = [""; MAX_FIELDS];
        let mut fields = 0;
        for tok in line.split_whitespace() {
            if let Some(slot) = toks.get_mut(fields) {
                *slot = tok;
            }
            fields += 1;
        }
        let name = toks[0];
        let err = |message: String| ParseNetlistError {
            line: lineno,
            message,
        };
        let first = name
            .chars()
            .next()
            .ok_or_else(|| err("empty element name".into()))?
            .to_ascii_uppercase();
        let need = |n: usize| -> Result<(), ParseNetlistError> {
            if fields == n {
                Ok(())
            } else {
                Err(err(format!("expected {n} fields, found {fields}")))
            }
        };
        let val = |s: &str| -> Result<f64, ParseNetlistError> {
            parse_value(s).ok_or_else(|| err(format!("bad value '{s}'")))
        };
        let e = match first {
            'R' | 'C' | 'L' | 'V' | 'I' => {
                need(4)?;
                let p = c.node(toks[1]);
                let n = c.node(toks[2]);
                let v = val(toks[3])?;
                match first {
                    'R' => Element::resistor(name, p, n, v),
                    'C' => Element::capacitor(name, p, n, v),
                    'L' => Element::inductor(name, p, n, v),
                    'V' => Element::vsource(name, p, n, v),
                    _ => Element::isource(name, p, n, v),
                }
            }
            'G' | 'E' => {
                need(6)?;
                let p = c.node(toks[1]);
                let n = c.node(toks[2]);
                let cp = c.node(toks[3]);
                let cn = c.node(toks[4]);
                let v = val(toks[5])?;
                if first == 'G' {
                    Element::vccs(name, p, n, cp, cn, v)
                } else {
                    Element::vcvs(name, p, n, cp, cn, v)
                }
            }
            'F' | 'H' => {
                need(5)?;
                let p = c.node(toks[1]);
                let n = c.node(toks[2]);
                let v = val(toks[4])?;
                if first == 'F' {
                    Element::cccs(name, p, n, toks[3], v)
                } else {
                    Element::ccvs(name, p, n, toks[3], v)
                }
            }
            other => return Err(err(format!("unknown element type '{other}'"))),
        };
        if let Err(taken) = c.try_add(e) {
            return Err(err(format!(
                "duplicate element name '{name}' (first defined on line {})",
                card_line[taken.0]
            )));
        }
        card_line.push(lineno);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ElementKind;

    #[test]
    fn values_with_suffixes() {
        assert_eq!(parse_value("100"), Some(100.0));
        assert_eq!(parse_value("1.5k"), Some(1500.0));
        assert_eq!(parse_value("1MEG"), Some(1e6));
        assert_eq!(parse_value("1m"), Some(1e-3));
        assert_eq!(parse_value("2u"), Some(2e-6));
        assert!((parse_value("3n").unwrap() - 3e-9).abs() < 1e-22);
        assert!((parse_value("4p").unwrap() - 4e-12).abs() < 1e-25);
        assert!((parse_value("5f").unwrap() - 5e-15).abs() < 1e-28);
        assert_eq!(parse_value("6G"), Some(6e9));
        assert_eq!(parse_value("7T"), Some(7e12));
        assert_eq!(parse_value("-2.5e-3"), Some(-2.5e-3));
        assert_eq!(parse_value("1e3"), Some(1000.0));
        assert_eq!(parse_value("1kohm"), Some(1000.0));
        assert_eq!(parse_value("10pF"), Some(10e-12));
        assert_eq!(parse_value(""), None);
        assert_eq!(parse_value("k1"), None);
    }

    #[test]
    fn parse_small_netlist() {
        let text = "\
* demo
V1 in 0 1
R1 in out 1k
C1 out 0 1p
G1 out 0 in 0 2m
.end";
        let c = parse_spice(text).unwrap();
        assert_eq!(c.num_elements(), 4);
        let g = c.element(c.find("G1").unwrap());
        assert_eq!(g.kind, ElementKind::Vccs);
        assert_eq!(g.value, 2e-3);
        assert_eq!(c.num_nodes(), 3);
    }

    #[test]
    fn parse_controlled_sources() {
        let text = "\
V1 1 0 1
E1 2 0 1 0 10
F1 3 0 V1 2
H1 4 0 V1 50
R1 2 0 1
R2 3 0 1
R3 4 0 1";
        let c = parse_spice(text).unwrap();
        assert_eq!(c.element(c.find("F1").unwrap()).ctrl_branch, "V1");
        assert_eq!(c.element(c.find("H1").unwrap()).value, 50.0);
        assert_eq!(c.element(c.find("E1").unwrap()).kind, ElementKind::Vcvs);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_spice("R1 1 0 1k\nXunknown 1 0").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));

        let e = parse_spice("R1 1 0").unwrap_err();
        assert!(e.message.contains("expected 4 fields"));

        let e = parse_spice("R1 1 0 abc").unwrap_err();
        assert!(e.message.contains("bad value"));
    }

    #[test]
    fn repeated_element_name_is_an_error_naming_both_lines() {
        let e =
            parse_spice("V1 in 0 1\n* load\nR1 in out 1k\nC1 out 0 1p\nR1 out 0 2k\n").unwrap_err();
        assert_eq!(e.line, 5);
        assert_eq!(
            e.message,
            "duplicate element name 'R1' (first defined on line 3)"
        );
        // Names are case-sensitive, as `Circuit::find` is.
        assert!(parse_spice("R1 a 0 1\nr1 a 0 2\n").is_ok());
    }

    #[test]
    fn comments_and_directives_skipped() {
        let c = parse_spice("* hi\n.option foo\n\nR1 a b 1\n.end\n").unwrap();
        assert_eq!(c.num_elements(), 1);
    }
}
