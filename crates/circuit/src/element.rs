//! Circuit element primitives.

use std::fmt;

/// A circuit node. `Node(0)` is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Node(pub usize);

impl Node {
    /// True for the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Index of an element within its [`crate::Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElementId(pub usize);

/// Discriminant of an [`Element`], used for filtering and statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    /// Resistor.
    Resistor,
    /// Capacitor.
    Capacitor,
    /// Inductor.
    Inductor,
    /// Independent voltage source.
    Vsource,
    /// Independent current source.
    Isource,
    /// Voltage-controlled current source (transconductance).
    Vccs,
    /// Voltage-controlled voltage source.
    Vcvs,
    /// Current-controlled current source.
    Cccs,
    /// Current-controlled voltage source.
    Ccvs,
}

impl ElementKind {
    /// True for capacitors and inductors (the paper's "energy storage
    /// elements").
    pub fn is_storage(self) -> bool {
        matches!(self, ElementKind::Capacitor | ElementKind::Inductor)
    }

    /// The letter a SPICE element line of this kind starts with.
    pub(crate) fn spice_letter(self) -> &'static str {
        match self {
            ElementKind::Resistor => "R",
            ElementKind::Capacitor => "C",
            ElementKind::Inductor => "L",
            ElementKind::Vsource => "V",
            ElementKind::Isource => "I",
            ElementKind::Vccs => "G",
            ElementKind::Vcvs => "E",
            ElementKind::Cccs => "F",
            ElementKind::Ccvs => "H",
        }
    }
}

/// A linear circuit element.
///
/// Current-controlled sources reference the *name* of the element whose
/// branch current controls them (a voltage source or inductor, which carry
/// explicit branch currents in MNA).
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Unique name, e.g. `"R1"`.
    pub name: String,
    /// Element kind and connection data.
    pub kind: ElementKind,
    /// Positive terminal.
    pub p: Node,
    /// Negative terminal.
    pub n: Node,
    /// Controlling positive terminal (VCCS/VCVS only).
    pub cp: Node,
    /// Controlling negative terminal (VCCS/VCVS only).
    pub cn: Node,
    /// Name of the branch element providing the controlling current
    /// (CCCS/CCVS only); empty otherwise.
    pub ctrl_branch: String,
    /// Element value: resistance, capacitance, inductance, source value,
    /// transconductance, gain, or transresistance depending on `kind`.
    pub value: f64,
}

impl Element {
    fn base(name: &str, kind: ElementKind, p: Node, n: Node, value: f64) -> Element {
        Element {
            name: name.to_string(),
            kind,
            p,
            n,
            cp: Node(0),
            cn: Node(0),
            ctrl_branch: String::new(),
            value,
        }
    }

    /// Resistor of `value` ohms between `p` and `n`.
    pub fn resistor(name: &str, p: Node, n: Node, value: f64) -> Element {
        Element::base(name, ElementKind::Resistor, p, n, value)
    }

    /// Capacitor of `value` farads between `p` and `n`.
    pub fn capacitor(name: &str, p: Node, n: Node, value: f64) -> Element {
        Element::base(name, ElementKind::Capacitor, p, n, value)
    }

    /// Inductor of `value` henries between `p` and `n`.
    pub fn inductor(name: &str, p: Node, n: Node, value: f64) -> Element {
        Element::base(name, ElementKind::Inductor, p, n, value)
    }

    /// Independent voltage source of `value` volts (`p` is the + terminal).
    pub fn vsource(name: &str, p: Node, n: Node, value: f64) -> Element {
        Element::base(name, ElementKind::Vsource, p, n, value)
    }

    /// Independent current source of `value` amperes flowing `p → n`
    /// through the source (i.e. it pushes current into node `n`).
    pub fn isource(name: &str, p: Node, n: Node, value: f64) -> Element {
        Element::base(name, ElementKind::Isource, p, n, value)
    }

    /// Voltage-controlled current source: a current `gm·(v(cp) − v(cn))`
    /// flows from `p` to `n` inside the source.
    pub fn vccs(name: &str, p: Node, n: Node, cp: Node, cn: Node, gm: f64) -> Element {
        let mut e = Element::base(name, ElementKind::Vccs, p, n, gm);
        e.cp = cp;
        e.cn = cn;
        e
    }

    /// Voltage-controlled voltage source: `v(p) − v(n) = gain·(v(cp) − v(cn))`.
    pub fn vcvs(name: &str, p: Node, n: Node, cp: Node, cn: Node, gain: f64) -> Element {
        let mut e = Element::base(name, ElementKind::Vcvs, p, n, gain);
        e.cp = cp;
        e.cn = cn;
        e
    }

    /// Current-controlled current source: a current `gain·i(ctrl)` flows
    /// from `p` to `n`, where `i(ctrl)` is the branch current of the named
    /// voltage source or inductor.
    pub fn cccs(name: &str, p: Node, n: Node, ctrl_branch: &str, gain: f64) -> Element {
        let mut e = Element::base(name, ElementKind::Cccs, p, n, gain);
        e.ctrl_branch = ctrl_branch.to_string();
        e
    }

    /// Current-controlled voltage source: `v(p) − v(n) = r·i(ctrl)`.
    pub fn ccvs(name: &str, p: Node, n: Node, ctrl_branch: &str, r: f64) -> Element {
        let mut e = Element::base(name, ElementKind::Ccvs, p, n, r);
        e.ctrl_branch = ctrl_branch.to_string();
        e
    }

    /// True when the element needs an explicit MNA branch current
    /// (voltage-defined elements).
    pub fn needs_branch_current(&self) -> bool {
        matches!(
            self.kind,
            ElementKind::Vsource | ElementKind::Inductor | ElementKind::Vcvs | ElementKind::Ccvs
        )
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ElementKind::Vccs | ElementKind::Vcvs => write!(
                f,
                "{} {} {} {} {} {:e}",
                self.name, self.p, self.n, self.cp, self.cn, self.value
            ),
            ElementKind::Cccs | ElementKind::Ccvs => write!(
                f,
                "{} {} {} {} {:e}",
                self.name, self.p, self.n, self.ctrl_branch, self.value
            ),
            _ => write!(f, "{} {} {} {:e}", self.name, self.p, self.n, self.value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_fields() {
        let r = Element::resistor("R1", Node(1), Node(2), 50.0);
        assert_eq!(r.kind, ElementKind::Resistor);
        assert_eq!(r.value, 50.0);
        assert!(!r.needs_branch_current());

        let g = Element::vccs("G1", Node(1), Node(0), Node(2), Node(3), 1e-3);
        assert_eq!(g.cp, Node(2));
        assert_eq!(g.cn, Node(3));

        let fsrc = Element::cccs("F1", Node(1), Node(0), "V1", 2.0);
        assert_eq!(fsrc.ctrl_branch, "V1");
    }

    #[test]
    fn branch_current_elements() {
        assert!(Element::vsource("V", Node(1), Node(0), 1.0).needs_branch_current());
        assert!(Element::inductor("L", Node(1), Node(0), 1e-9).needs_branch_current());
        assert!(Element::vcvs("E", Node(1), Node(0), Node(2), Node(0), 2.0).needs_branch_current());
        assert!(Element::ccvs("H", Node(1), Node(0), "V1", 2.0).needs_branch_current());
        assert!(!Element::capacitor("C", Node(1), Node(0), 1e-12).needs_branch_current());
    }

    #[test]
    fn storage_kinds() {
        assert!(ElementKind::Capacitor.is_storage());
        assert!(ElementKind::Inductor.is_storage());
        assert!(!ElementKind::Resistor.is_storage());
    }

    #[test]
    fn display_round_trippable_shapes() {
        let r = Element::resistor("R1", Node(1), Node(2), 50.0);
        assert_eq!(r.to_string(), "R1 1 2 5e1");
        let g = Element::vccs("G1", Node(1), Node(0), Node(2), Node(3), 1e-3);
        assert_eq!(g.to_string(), "G1 1 0 2 3 1e-3");
    }

    #[test]
    fn ground_check() {
        assert!(Node(0).is_ground());
        assert!(!Node(1).is_ground());
    }
}
