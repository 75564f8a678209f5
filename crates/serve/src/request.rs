//! The request schema: each command's fields, declared once.
//!
//! [`COMMANDS`] gives every command its fields, each with its JSON type
//! and whether it is required. [`check`] holds a parsed request line
//! against that table before anything is dispatched, and refuses with a
//! typed `bad_request` naming the field: an unknown `cmd`, an unknown
//! field (the answer lists the command's fields), a field given twice, a
//! value of the wrong type, a missing required field. Every command also
//! takes `id` and `encoding`, and `null` means absent for an optional
//! field. Handlers read the checked values through [`Checked`] and make
//! no type checks of their own; the request table in `docs/serving.md`
//! is compared with [`COMMANDS`] by a test.
//!
//! A `batch` line and an `AWSQ` frame both become a [`BatchRequest`],
//! which one function of the server answers.

use crate::batch::BatchOutput;
use crate::columns::{check_finite, PointColumns};
use crate::encode::WireEncoding;
use crate::ServeError;
use serde::Content;

/// A field's JSON type, as [`Json::describe`] names it to a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Json {
    Str,
    OneOf(&'static [&'static str]),
    UInt,
    Numbers,
    Strings,
    /// An array of arrays of numbers.
    Rows,
    Any,
}

impl Json {
    fn describe(self) -> String {
        match self {
            Json::Str => "a string".into(),
            Json::OneOf(allowed) => format!("one of {}", allowed.join("|")),
            Json::UInt => "a non-negative integer".into(),
            Json::Numbers => "an array of numbers".into(),
            Json::Strings => "an array of strings".into(),
            Json::Rows => "an array of arrays of numbers".into(),
            Json::Any => "any value".into(),
        }
    }

    /// True when `v` is a value of this type.
    fn admits(self, v: &Content) -> bool {
        let each = |item: fn(&Content) -> bool| v.as_seq().is_some_and(|s| s.iter().all(item));
        match self {
            Json::Str => v.as_str().is_some(),
            Json::OneOf(allowed) => v.as_str().is_some_and(|s| allowed.contains(&s)),
            Json::UInt => v.as_u64().is_some(),
            Json::Numbers => each(|x| x.as_f64().is_some()),
            Json::Strings => each(|x| x.as_str().is_some()),
            Json::Rows => each(|row| Json::Numbers.admits(row)),
            Json::Any => true,
        }
    }
}

/// A field: its name and its JSON type.
pub(crate) type Field = (&'static str, Json);

/// A served command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmd {
    Load,
    Compile,
    Save,
    Eval,
    Batch,
    Stats,
    Health,
    Drain,
    Shutdown,
}

/// A command: its name, its required fields, and its optional ones.
pub(crate) type Command = (&'static str, Cmd, &'static [Field], &'static [Field]);

/// The `encoding` values.
const ENCODINGS: &[&str] = &[
    WireEncoding::Ndjson.as_str(),
    WireEncoding::BinaryV1.as_str(),
];

/// The fields every command takes: `cmd`, then optional ones.
const COMMON: [Field; 3] = [
    ("cmd", Json::Str),
    ("id", Json::Any),
    ("encoding", Json::OneOf(ENCODINGS)),
];

/// The values of `kind`, and of its alias `output`.
const KINDS: Json = Json::OneOf(&["moments", "rom", "dc_gain", "step", "delays"]);

/// The optional fields of `eval` and `batch`.
const EVALUATION: &[Field] = &[
    ("kind", KINDS),
    ("output", KINDS),
    ("times", Json::Numbers),
    ("deadline_ms", Json::UInt),
    ("workers", Json::UInt),
];

/// Every command, with the fields it takes besides [`COMMON`].
const COMMANDS: [Command; 9] = {
    use Json::{Numbers, Rows, Str, Strings, UInt};
    [
        ("load", Cmd::Load, &[("name", Str), ("path", Str)], &[]),
        (
            "compile",
            Cmd::Compile,
            &[
                ("name", Str),
                ("input", Str),
                ("output", Str),
                ("symbols", Strings),
            ],
            &[("netlist", Str), ("path", Str), ("order", UInt)],
        ),
        ("save", Cmd::Save, &[("model", Str), ("path", Str)], &[]),
        (
            "eval",
            Cmd::Eval,
            &[("model", Str), ("values", Numbers)],
            EVALUATION,
        ),
        (
            "batch",
            Cmd::Batch,
            &[("model", Str), ("points", Rows)],
            EVALUATION,
        ),
        ("stats", Cmd::Stats, &[], &[]),
        ("health", Cmd::Health, &[], &[]),
        ("drain", Cmd::Drain, &[], &[]),
        ("shutdown", Cmd::Shutdown, &[], &[]),
    ]
};

/// Every field of `command`, required ones first.
fn fields(command: &Command) -> impl Iterator<Item = &Field> + '_ {
    command.2.iter().chain(command.3).chain(&COMMON)
}

/// A `bad_request` refusal.
pub(crate) fn bad(what: impl Into<String>) -> ServeError {
    ServeError::BadRequest { what: what.into() }
}

/// Why `value` does not fit field `name` of type `ty`: it is missing
/// (absent or `null`), or of the wrong type.
fn refusal(name: &str, ty: &str, value: &Content) -> ServeError {
    bad(if value.is_null() {
        format!("missing field '{name}' ({ty})")
    } else {
        format!("'{name}' must be {ty}")
    })
}

/// The numbers of a checked array of numbers.
pub(crate) fn numbers(v: &Content) -> impl Iterator<Item = f64> + '_ {
    v.as_seq().into_iter().flatten().filter_map(Content::as_f64)
}

/// Holds a parsed request against its command's fields.
///
/// # Errors
///
/// A `bad_request` naming the first offending field: a request that is
/// not an object; a `cmd` that is missing or names no command; then, in
/// request order, a field the command does not take, a field given
/// twice, or a value of the wrong type; then a missing required field.
pub(crate) fn check(req: &Content) -> Result<Checked<'_>, ServeError> {
    let entries = req
        .as_map_slice()
        .ok_or_else(|| bad("a request must be a JSON object"))?;
    let cmd = req.get("cmd").unwrap_or(&Content::Null);
    let Some(command) = COMMANDS.iter().find(|c| cmd.as_str() == Some(c.0)) else {
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
        return Err(refusal("cmd", &format!("one of {}", names.join("|")), cmd));
    };
    for (at, (key, value)) in entries.iter().enumerate() {
        let Some(&(_, ty)) = fields(command).find(|f| f.0 == key) else {
            let names: Vec<&str> = fields(command).map(|f| f.0).collect();
            let (cmd, names) = (command.0, names.join(", "));
            return Err(bad(format!(
                "unknown field '{key}' for cmd '{cmd}' (fields: {names})"
            )));
        };
        // Every earlier key is a distinct field, so this scan is short.
        if entries[..at].iter().any(|(k, _)| k == key) {
            return Err(bad(format!("field '{key}' is given twice")));
        }
        if !value.is_null() && !ty.admits(value) {
            return Err(refusal(key, &ty.describe(), value));
        }
    }
    let missing = command
        .2
        .iter()
        .find(|f| req.get(f.0).is_none_or(Content::is_null));
    match missing {
        Some(&(name, ty)) => Err(refusal(name, &ty.describe(), &Content::Null)),
        None => Ok(Checked { command, req }),
    }
}

/// A request that passed [`check`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checked<'a> {
    pub(crate) command: &'static Command,
    req: &'a Content,
}

impl<'a> Checked<'a> {
    /// Field `name`'s value, `null` when absent.
    pub(crate) fn value(&self, name: &str) -> &'a Content {
        debug_assert!(
            fields(self.command).any(|f| f.0 == name),
            "cmd '{}' declares no field '{name}'",
            self.command.0
        );
        self.req.get(name).unwrap_or(&Content::Null)
    }

    /// A string field's value; empty when absent, which a required field
    /// never is.
    pub(crate) fn str(&self, name: &str) -> &'a str {
        self.value(name).as_str().unwrap_or_default()
    }

    /// What an `eval` or `batch` computes: `kind`, else its alias
    /// `output`, else moments. The `step` times are taken as they are;
    /// the engine refuses a non-finite one after the model lookup.
    ///
    /// # Errors
    ///
    /// A `bad_request` for kind `step` without `times`.
    pub(crate) fn output(&self) -> Result<BatchOutput, ServeError> {
        let kind = self.value("kind").as_str();
        Ok(match kind.or(self.value("output").as_str()) {
            Some("rom") => BatchOutput::Rom,
            Some("dc_gain") => BatchOutput::DcGain,
            Some("delays") => BatchOutput::Delays,
            Some("step") => match self.value("times") {
                Content::Null => return Err(bad("kind 'step' requires a 'times' array")),
                times => BatchOutput::Step {
                    times: numbers(times).collect(),
                },
            },
            _ => BatchOutput::Moments,
        })
    }

    /// A `batch` line as the request an `AWSQ` frame decodes to. The
    /// line's `id` is echoed from the line, so the request carries none.
    ///
    /// # Errors
    ///
    /// As [`Checked::output`].
    pub(crate) fn batch(&self) -> Result<BatchRequest<'a>, ServeError> {
        Ok(BatchRequest {
            model: self.str("model"),
            output: self.output()?,
            points: BatchPoints::Rows(self.value("points").as_seq().unwrap_or_default()),
            deadline_ms: self.value("deadline_ms").as_u64(),
            workers: self.value("workers").as_u64().map(|w| w as usize),
            id: None,
        })
    }
}

/// A `batch` request, typed: decoded from an `AWSQ` frame by the socket
/// front end, or read from a checked JSON line. The server answers both
/// through one function.
///
/// Nothing is allocated from an unchecked count: the points stay
/// borrowed from the request until the engine has resolved the model and
/// checked their count against `max_batch_points`; only then are they
/// copied, once, into [`PointColumns`].
#[derive(Debug, Clone)]
pub struct BatchRequest<'a> {
    /// Registered model name.
    pub model: &'a str,
    /// Output kind (with the `step` sample times).
    pub output: BatchOutput,
    /// The points.
    pub points: BatchPoints<'a>,
    /// Evaluation deadline, when the request carries one.
    pub deadline_ms: Option<u64>,
    /// Worker cap; `None` = server default.
    pub workers: Option<usize>,
    /// A frame's correlation id, parsed from its JSON id section.
    pub id: Option<Content>,
}

/// A batch request's points, borrowed from the request.
#[derive(Debug, Clone, Copy)]
pub enum BatchPoints<'a> {
    /// An `AWSQ` payload.
    Payload {
        /// Point count.
        count: usize,
        /// Symbols per point.
        syms: usize,
        /// `count × syms` little-endian `f64`s, column-major.
        payload: &'a [u8],
    },
    /// A JSON `points` array, each row an array of numbers.
    Rows(&'a [Content]),
}

impl BatchPoints<'_> {
    /// Copies the points into a [`PointColumns`] buffer for a model of
    /// `syms` symbols. More than `limit` points are refused before
    /// anything is allocated. JSON rows of another length become
    /// per-point arity errors; a payload keeps its own symbol count.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for more than `limit` points, for the
    /// first non-finite value in row-major order, or for a payload whose
    /// length is not `count × syms` values.
    pub fn columns(&self, syms: usize, limit: usize) -> Result<PointColumns, ServeError> {
        let count = match *self {
            BatchPoints::Payload { count, .. } => count,
            BatchPoints::Rows(rows) => rows.len(),
        };
        if count > limit {
            return Err(bad(format!("batch has {count} points, limit is {limit}")));
        }
        match *self {
            BatchPoints::Payload {
                count,
                syms,
                payload,
            } => {
                let need = syms.checked_mul(8).and_then(|row| row.checked_mul(count));
                if need != Some(payload.len()) {
                    return Err(bad(format!(
                        "frame payload holds {} bytes, not {count} points of {syms} symbols",
                        payload.len()
                    )));
                }
                let cols = PointColumns::from_le_bytes(count, syms, payload);
                if let Some(i) = cols.first_non_finite() {
                    check_finite(cols.row(i), "each point")?;
                }
                Ok(cols)
            }
            BatchPoints::Rows(rows) => {
                let mut cols = PointColumns::zeroed(rows.len(), syms);
                for (i, row) in rows.iter().enumerate() {
                    check_finite(numbers(row), "each point")?;
                    let len = row.as_seq().map_or(0, <[Content]>::len);
                    cols.set_row(i, len, numbers(row));
                }
                Ok(cols)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Server;

    const NETLIST: &str = "* fig1\nvin in 0 1\nR1 in 1 1k\nC1 1 0 1n\nR2 1 2 1k\nC2 2 0 1n\n.end\n";

    type Fields = Vec<(String, Content)>;

    fn text(v: &str) -> Content {
        Content::Str(v.into())
    }

    fn numbers_of(vals: &[f64]) -> Content {
        Content::Seq(vals.iter().map(|&v| Content::F64(v)).collect())
    }

    /// A request of `cmd` carrying `fields`.
    fn request(cmd: &str, fields: &[(String, Content)]) -> Content {
        let mut all = vec![("cmd".to_string(), text(cmd))];
        all.extend(fields.iter().cloned());
        Content::Map(all)
    }

    /// The answer to `req`, as JSON.
    fn answer(server: &Server, req: &Content) -> Content {
        let line = serde_json::to_string(req).expect("request serializes");
        let resp = server.handle_line(&line).expect("a non-blank line");
        serde_json::from_str(resp.text()).expect("answer is JSON")
    }

    fn code(c: &Content) -> Option<&str> {
        c.get("code").and_then(Content::as_str)
    }

    /// A valid value of every required field of `cmd`, on a server that
    /// holds model `m` and an artifact of it at `artifact`.
    fn required_fields(cmd: &str, artifact: &str, saved: &str) -> Fields {
        let fields: Vec<(&str, Content)> = match cmd {
            "load" => vec![("name", text("m2")), ("path", text(artifact))],
            "compile" => vec![
                ("name", text("m3")),
                ("netlist", text(NETLIST)),
                ("input", text("vin")),
                ("output", text("2")),
                ("symbols", Content::Seq(vec![text("C1"), text("R2:r")])),
            ],
            "save" => vec![("model", text("m")), ("path", text(saved))],
            "eval" => vec![("model", text("m")), ("values", numbers_of(&[1e-9, 1e3]))],
            "batch" => vec![
                ("model", text("m")),
                ("points", Content::Seq(vec![numbers_of(&[1e-9, 1e3])])),
            ],
            _ => vec![],
        };
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    }

    /// Values of the wrong type for a field of type `ty`.
    fn wrong_values(ty: Json) -> Vec<Content> {
        let parse = |json: &str| serde_json::from_str::<Content>(json).expect("valid JSON");
        let json: &[&str] = match ty {
            Json::Str => &["7", r#"["x"]"#],
            Json::OneOf(_) => &["7", r#""bogus""#, r#"["rom"]"#],
            Json::UInt => &[r#""4""#, "-1", "2.5"],
            Json::Numbers => &[r#""1e-9""#, r#"[1e-9,"x"]"#],
            Json::Strings => &[r#""C1""#, r#"["C1",5]"#],
            Json::Rows => &["[1e-9,1e3]", r#"[[1e-9,1e3],"x"]"#, r#"[[1e-9,"x"]]"#],
            Json::Any => &[],
        };
        json.iter().map(|j| parse(j)).collect()
    }

    /// `fields` with `name` set to `value`, replacing an earlier value.
    fn with(fields: &Fields, name: &str, value: Content) -> Fields {
        let mut out: Fields = fields.iter().filter(|(k, _)| k != name).cloned().collect();
        out.push((name.to_string(), value));
        out
    }

    /// Every malformed case the schema implies, for every command: each
    /// field with a value of the wrong type; each required field absent
    /// and `null`; one unknown and one repeated field; and `order` just
    /// outside `1..=MAX_ORDER`. Each answers `bad_request` naming the
    /// field, and the same server then still evaluates.
    #[test]
    fn every_malformed_field_is_refused_by_name_and_the_server_keeps_serving() {
        let server = Server::default();
        let dir = std::env::temp_dir().join(format!("awesym_schema_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("a temporary directory");
        let artifact = dir.join("m.awesym").display().to_string();
        let saved = dir.join("s.awesym").display().to_string();
        let compile = request(
            "compile",
            &with(&required_fields("compile", "", ""), "name", text("m")),
        );
        assert_eq!(
            answer(&server, &compile).get("ok"),
            Some(&Content::Bool(true))
        );
        let save = request(
            "save",
            &with(&required_fields("save", "", ""), "path", text(&artifact)),
        );
        assert_eq!(answer(&server, &save).get("ok"), Some(&Content::Bool(true)));
        let eval = request("eval", &required_fields("eval", "", ""));
        let mut cases = 0;
        // Refuses `req`, naming the field as `needle` does.
        let mut refuse = |req: Content, needle: &str| {
            let c = answer(&server, &req);
            assert_eq!(code(&c), Some("bad_request"), "{req:?} -> {c:?}");
            let error = c.get("error").and_then(Content::as_str).unwrap_or_default();
            assert!(error.contains(needle), "{req:?} -> {error}");
            let after = answer(&server, &eval);
            assert_eq!(after.get("ok"), Some(&Content::Bool(true)), "after {req:?}");
            cases += 1;
            error.to_string()
        };
        for command in &COMMANDS {
            let cmd = command.0;
            let base = required_fields(cmd, &artifact, &saved);
            // A valid `drain` would stop the evaluations below.
            if cmd != "drain" {
                let c = answer(&server, &request(cmd, &base));
                assert_eq!(c.get("ok"), Some(&Content::Bool(true)), "{cmd}: {c:?}");
            }
            for &(field, ty) in fields(command).filter(|f| f.0 != "cmd") {
                let name = format!("'{field}'");
                for bad in wrong_values(ty) {
                    refuse(request(cmd, &with(&base, field, bad)), &name);
                }
            }
            for &(field, _) in command.2 {
                let name = format!("'{field}'");
                let without: Fields = base.iter().filter(|(k, _)| k != field).cloned().collect();
                let error = refuse(request(cmd, &without), &name);
                assert!(error.contains("missing field"), "{error}");
                refuse(request(cmd, &with(&base, field, Content::Null)), &name);
            }
            let error = refuse(
                request(cmd, &with(&base, "bogus", Content::U64(1))),
                "'bogus'",
            );
            for (field, _) in fields(command) {
                assert!(error.contains(field), "{cmd}: {error}");
            }
            let (name, value) = base.first().cloned().unwrap_or(("cmd".into(), text(cmd)));
            let mut repeated = base.clone();
            repeated.push((name.clone(), value));
            refuse(request(cmd, &repeated), &format!("'{name}'"));
        }
        for bad in [Content::Null, Content::U64(7), text("frobnicate")] {
            refuse(Content::Map(vec![("cmd".into(), bad)]), "'cmd'");
        }
        let compile = required_fields("compile", "", "");
        let order = awesym_partition::MAX_ORDER as u64;
        for bad in [0, order + 1] {
            let req = request("compile", &with(&compile, "order", Content::U64(bad)));
            refuse(
                req,
                &format!("order {bad} is outside the supported range 1..={order}"),
            );
        }
        assert!(cases > 100, "{cases} cases");
        // The refused `drain`s above never drained the server.
        assert!(!server.draining());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn negotiation_rules() {
        let server = Server::default();
        let compile = request("compile", &required_fields("compile", "", ""));
        assert_eq!(answer(&server, &compile).get("name"), Some(&text("m3")));
        let batch = r#"{"cmd":"batch","model":"m3","points":[[1e-9,1e3]]"#;
        let respond = |encoding: &str| {
            let line = format!("{batch}{encoding}}}");
            server.handle_line(&line).expect("a request line")
        };
        for (encoding, want) in [
            ("", WireEncoding::Ndjson),
            (r#","encoding":null"#, WireEncoding::Ndjson),
            (r#","encoding":"ndjson""#, WireEncoding::Ndjson),
            (r#","encoding":"binary-v1""#, WireEncoding::BinaryV1),
        ] {
            assert_eq!(respond(encoding).encoding, want, "{encoding}");
        }
        for bad in [r#","encoding":"binary-v2""#, r#","encoding":42"#] {
            let r = respond(bad);
            assert_eq!(r.encoding, WireEncoding::Ndjson, "{bad}");
            assert!(r.text().contains(r#""code":"bad_request""#), "{bad}");
            assert!(r.text().contains("ndjson|binary-v1"), "{}", r.text());
        }
    }

    /// Each `kind` value selects an output of its own.
    #[test]
    fn every_kind_selects_its_own_output() {
        let Json::OneOf(kinds) = KINDS else {
            panic!("kinds are a list of names")
        };
        let mut seen = Vec::new();
        for kind in kinds {
            let json = format!(
                r#"{{"cmd":"eval","model":"m","values":[1],"kind":"{kind}","times":[1e-9]}}"#
            );
            let req: Content = serde_json::from_str(&json).expect("valid JSON");
            let output = check(&req).and_then(|c| c.output()).expect("a valid kind");
            assert!(!seen.contains(&output), "{kind} repeats {output:?}");
            seen.push(output);
        }
    }

    /// The request table in `docs/serving.md` lists every command once,
    /// with the fields the schema gives it, in schema order, optional ones
    /// marked `?`.
    #[test]
    fn the_served_request_table_matches_the_schema() {
        let doc = include_str!("../../../docs/serving.md");
        let rows: Vec<(&str, &str)> = doc
            .lines()
            .skip_while(|l| !l.starts_with("| request | fields |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                (cells[1].trim_matches('`'), cells[2])
            })
            .collect();
        assert_eq!(rows.len(), COMMANDS.len(), "{rows:?}");
        for ((cmd, _, required, optional), (row_cmd, row_fields)) in COMMANDS.iter().zip(&rows) {
            assert_eq!(cmd, row_cmd);
            let required = required.iter().map(|(name, _)| format!("`{name}`"));
            let optional = optional.iter().map(|(name, _)| format!("`{name}?`"));
            let want: Vec<String> = required.chain(optional).collect();
            let got: Vec<&str> = match *row_fields {
                "—" => Vec::new(),
                cell => cell.split(", ").collect(),
            };
            assert_eq!(got, want, "docs/serving.md row for `{cmd}`");
        }
        let common: Vec<String> = COMMON[1..].iter().map(|f| format!("`{}?`", f.0)).collect();
        assert!(
            doc.contains(&format!(
                "Every command also takes {}",
                common.join(" and ")
            )),
            "docs/serving.md names the fields every command takes"
        );
    }

    /// The session example in `docs/serving.md` is what a server answers,
    /// up to the timing fields.
    #[test]
    fn the_served_session_example_is_what_the_server_answers() {
        let doc = include_str!("../../../docs/serving.md");
        let session: Vec<&str> = doc
            .lines()
            .skip_while(|l| !l.starts_with("A session, as it appears on the wire"))
            .skip(3)
            .take_while(|l| !l.starts_with("```"))
            .collect();
        assert_eq!(session.len(), 6, "{session:?}");
        let server = Server::default();
        for pair in session.chunks(2) {
            let (sent, want) = (&pair[0]["→ ".len()..], &pair[1]["← ".len()..]);
            let got = server.handle_line(sent).expect("a request line");
            let untimed = |line: &str| line.split(",\"elapsed_secs\"").next().map(str::to_string);
            assert_eq!(untimed(got.text()), untimed(want), "{sent}");
        }
    }
}
