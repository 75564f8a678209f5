//! Shared input/output lookup and `ELEM[:role]` symbol-spec parsing,
//! used by both the `awesym` CLI flags and the server's `compile`
//! command.

use awesym_circuit::{Circuit, ElementId, ElementKind, Node};
use awesym_partition::{SymbolBinding, SymbolRole};

/// Looks up a model's input, which must be an independent source, and
/// its output node by name.
///
/// # Errors
///
/// A human-readable message for an unknown element or node, or an input
/// that is not an independent source.
pub fn resolve_io(c: &Circuit, input: &str, output: &str) -> Result<(ElementId, Node), String> {
    let id = c
        .find(input)
        .ok_or_else(|| format!("no element named {input}"))?;
    if !matches!(
        c.element(id).kind,
        ElementKind::Vsource | ElementKind::Isource
    ) {
        return Err(format!("{input} is not an independent source"));
    }
    let node = c
        .find_node(output)
        .ok_or_else(|| format!("no node named {output}"))?;
    Ok((id, node))
}

/// Parses one `ELEM[:role]` spec against a circuit. Roles are `g`
/// (conductance), `r` (resistance), `c` (capacitance), `l` (inductance)
/// and `gm` (transconductance); without a role the element kind picks
/// its natural one.
///
/// # Errors
///
/// A human-readable message for an unknown element, unknown role, or an
/// element kind that cannot be symbolic.
pub fn resolve_symbol_spec(c: &Circuit, spec: &str) -> Result<SymbolBinding, String> {
    let (name, role_txt) = match spec.split_once(':') {
        Some((n, r)) => (n, Some(r)),
        None => (spec, None),
    };
    let id = c
        .find(name)
        .ok_or_else(|| format!("no element named {name}"))?;
    let kind = c.element(id).kind;
    let role = match role_txt {
        Some("g") => SymbolRole::Conductance,
        Some("r") => SymbolRole::Resistance,
        Some("c") => SymbolRole::Capacitance,
        Some("l") => SymbolRole::Inductance,
        Some("gm") => SymbolRole::Transconductance,
        Some(other) => return Err(format!("unknown role '{other}'")),
        None => match kind {
            ElementKind::Resistor => SymbolRole::Resistance,
            ElementKind::Capacitor => SymbolRole::Capacitance,
            ElementKind::Inductor => SymbolRole::Inductance,
            ElementKind::Vccs => SymbolRole::Transconductance,
            other => return Err(format!("element {name} ({other:?}) cannot be a symbol")),
        },
    };
    Ok(SymbolBinding {
        name: name.to_string(),
        role,
        elements: vec![id],
    })
}

/// Parses a list of specs; see [`resolve_symbol_spec`].
///
/// # Errors
///
/// The first spec's error, or a message when `specs` is empty.
pub fn resolve_symbol_specs<S: AsRef<str>>(
    c: &Circuit,
    specs: &[S],
) -> Result<Vec<SymbolBinding>, String> {
    if specs.is_empty() {
        return Err("at least one symbol spec is required".into());
    }
    specs
        .iter()
        .map(|s| resolve_symbol_spec(c, s.as_ref()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::generators::fig1_rc;

    #[test]
    fn specs_resolve_roles() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let b = resolve_symbol_specs(&w.circuit, &["C1", "R2:g"]).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].role, SymbolRole::Capacitance);
        assert_eq!(b[1].role, SymbolRole::Conductance);
        assert!(resolve_symbol_spec(&w.circuit, "C1:zz")
            .unwrap_err()
            .contains("unknown role"));
        assert!(resolve_symbol_spec(&w.circuit, "nope")
            .unwrap_err()
            .contains("no element"));
        let empty: [&str; 0] = [];
        assert!(resolve_symbol_specs(&w.circuit, &empty).is_err());
    }
}
