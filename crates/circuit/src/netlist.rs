//! The [`Circuit`] container.

use crate::names::NameIndex;
use crate::{Element, ElementId, ElementKind, Node};
use std::fmt::Write as _;

/// A linear(ized) circuit: a set of named nodes and a list of elements.
///
/// Nodes are created on demand by [`Circuit::node`]; node `0` is ground and
/// always exists. Elements are appended with [`Circuit::add`] and retrieved
/// by [`ElementId`] or by name.
#[derive(Debug, Clone)]
pub struct Circuit {
    elements: Vec<Element>,
    node_names: Vec<String>,
    /// Element positions by name.
    by_name: NameIndex,
    /// Node numbers by name, ASCII case folded; ground is not indexed.
    node_by_name: NameIndex,
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new()
    }
}

impl Circuit {
    /// The ground node.
    pub const GROUND: Node = Node(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// As [`Circuit::new`], with room for `elements` elements and `nodes`
    /// more nodes before any table regrows.
    pub(crate) fn with_capacity(elements: usize, nodes: usize) -> Self {
        let mut node_names = Vec::with_capacity(nodes + 1);
        node_names.push("0".to_string());
        Circuit {
            elements: Vec::with_capacity(elements),
            node_names,
            by_name: NameIndex::with_capacity(elements),
            node_by_name: NameIndex::with_capacity(nodes),
        }
    }

    /// Returns the node with the given name, creating it if needed.
    /// `"0"` and `"gnd"` (any case) are ground.
    pub fn node(&mut self, name: &str) -> Node {
        let hash = match self.lookup_node(name) {
            Ok(n) => return n,
            Err(hash) => hash,
        };
        let n = Node(self.node_names.len());
        self.node_names.push(name.to_string());
        self.node_by_name.insert(hash, n.0);
        n
    }

    /// The node named `name`, or the name's hash in the node index.
    fn lookup_node(&self, name: &str) -> Result<Node, u64> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Ok(Circuit::GROUND);
        }
        let hash = self.node_by_name.hash(name, true);
        self.node_by_name
            .find(hash, |i| self.node_names[i].eq_ignore_ascii_case(name))
            .map(Node)
            .ok_or(hash)
    }

    /// Creates a fresh anonymous node.
    pub fn fresh_node(&mut self) -> Node {
        let name = format!("_n{}", self.node_names.len());
        self.node(&name)
    }

    /// Number of nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics when the node does not belong to this circuit.
    pub fn node_name(&self, n: Node) -> &str {
        &self.node_names[n.0]
    }

    /// Looks up a node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<Node> {
        self.lookup_node(name).ok()
    }

    /// Appends an element and returns its id.
    ///
    /// # Panics
    ///
    /// Panics when an element with the same name already exists or when the
    /// element references nodes that were not created through this circuit.
    pub fn add(&mut self, e: Element) -> ElementId {
        match self.try_add(e) {
            Ok(id) => id,
            Err(taken) => panic!("duplicate element name {}", self.elements[taken.0].name),
        }
    }

    /// Appends an element unless its name is taken, in which case the
    /// element is dropped and the id of the one holding the name returned.
    ///
    /// # Errors
    ///
    /// Returns the id of the existing element with the same name.
    ///
    /// # Panics
    ///
    /// Panics when the element references nodes that were not created
    /// through this circuit.
    pub fn try_add(&mut self, e: Element) -> Result<ElementId, ElementId> {
        let hash = self.by_name.hash(&e.name, false);
        if let Some(taken) = self.by_name.find(hash, |i| self.elements[i].name == e.name) {
            return Err(ElementId(taken));
        }
        for node in [e.p, e.n, e.cp, e.cn] {
            assert!(
                node.0 < self.node_names.len(),
                "element {} references unknown node",
                e.name
            );
        }
        let id = ElementId(self.elements.len());
        self.by_name.insert(hash, id.0);
        self.elements.push(e);
        Ok(id)
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The element with the given id.
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0]
    }

    /// Mutable access to an element's value (for sweeps).
    pub fn set_value(&mut self, id: ElementId, value: f64) {
        self.elements[id.0].value = value;
    }

    /// Finds an element id by name.
    pub fn find(&self, name: &str) -> Option<ElementId> {
        let hash = self.by_name.hash(name, false);
        self.by_name
            .find(hash, |i| self.elements[i].name == name)
            .map(ElementId)
    }

    /// Number of elements.
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Number of energy-storage elements (capacitors and inductors).
    pub fn num_storage_elements(&self) -> usize {
        self.elements.iter().filter(|e| e.kind.is_storage()).count()
    }

    /// Ids of all independent sources.
    pub fn sources(&self) -> Vec<ElementId> {
        self.elements
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, ElementKind::Vsource | ElementKind::Isource))
            .map(|(i, _)| ElementId(i))
            .collect()
    }

    /// Serializes to a SPICE-like netlist accepted by
    /// [`crate::parse_spice`], using node *names* so a parse round trip
    /// preserves lookups.
    ///
    /// SPICE reads an element's kind from the first letter of its name,
    /// so a name that starts with another letter (a resistor named `hr1`)
    /// is written with its kind's letter in front (`Rhr1`), and so is
    /// every reference to it from a current-controlled source.
    pub fn to_spice(&self) -> String {
        let mut out = String::from("* AWEsymbolic netlist\n");
        let name = |n: Node| self.node_name(n);
        let ctrl_prefix = |branch: &str| {
            self.find(branch)
                .map_or("", |id| spice_prefix(self.element(id)))
        };
        for e in &self.elements {
            use crate::ElementKind::*;
            let prefix = spice_prefix(e);
            let _ = match e.kind {
                Vccs | Vcvs => writeln!(
                    out,
                    "{prefix}{} {} {} {} {} {:e}",
                    e.name,
                    name(e.p),
                    name(e.n),
                    name(e.cp),
                    name(e.cn),
                    e.value
                ),
                Cccs | Ccvs => writeln!(
                    out,
                    "{prefix}{} {} {} {}{} {:e}",
                    e.name,
                    name(e.p),
                    name(e.n),
                    ctrl_prefix(&e.ctrl_branch),
                    e.ctrl_branch,
                    e.value
                ),
                _ => writeln!(
                    out,
                    "{prefix}{} {} {} {:e}",
                    e.name,
                    name(e.p),
                    name(e.n),
                    e.value
                ),
            };
        }
        out.push_str(".end\n");
        out
    }
}

/// What [`Circuit::to_spice`] writes before `e`'s name so its line starts
/// with the kind's SPICE letter: nothing when the name already does.
fn spice_prefix(e: &Element) -> &'static str {
    let letter = e.kind.spice_letter();
    if e.name
        .get(..1)
        .is_some_and(|first| first.eq_ignore_ascii_case(letter))
    {
        ""
    } else {
        letter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_deduplicate_case_insensitively() {
        let mut c = Circuit::new();
        let a = c.node("N1");
        let b = c.node("n1");
        assert_eq!(a, b);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("0"), Circuit::GROUND);
    }

    #[test]
    fn names_are_found_through_every_regrow() {
        let mut c = Circuit::new();
        let mut nodes = Vec::new();
        for i in 0..5000 {
            let n = c.node(&format!("Node{i}"));
            nodes.push(n);
            c.add(Element::resistor(&format!("R{i}"), n, Circuit::GROUND, 1.0));
        }
        for (i, &n) in nodes.iter().enumerate() {
            assert_eq!(c.find_node(&format!("nODE{i}")), Some(n));
            assert_eq!(c.node(&format!("NODE{i}")), n);
            assert_eq!(c.node_name(n), format!("Node{i}"));
            assert_eq!(c.find(&format!("R{i}")), Some(ElementId(i)));
            assert_eq!(c.find(&format!("r{i}")), None);
        }
        assert_eq!(c.num_nodes(), 5001);
        assert_eq!(c.find_node("Node5000"), None);
        assert_eq!(c.find("R5000"), None);
        assert_eq!(c.find_node("GND"), Some(Circuit::GROUND));
        let mut empty = Circuit::default();
        assert_eq!((empty.find("R1"), empty.find_node("x")), (None, None));
        assert_eq!(empty.node("Gnd"), Circuit::GROUND);
    }

    #[test]
    fn fresh_nodes_are_unique() {
        let mut c = Circuit::new();
        let a = c.fresh_node();
        let b = c.fresh_node();
        assert_ne!(a, b);
    }

    #[test]
    fn add_and_lookup() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let id = c.add(Element::resistor("R1", n1, Circuit::GROUND, 10.0));
        assert_eq!(c.find("R1"), Some(id));
        assert_eq!(c.element(id).value, 10.0);
        c.set_value(id, 20.0);
        assert_eq!(c.element(id).value, 20.0);
        assert_eq!(c.find("R2"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate element name")]
    fn duplicate_name_panics() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 2.0));
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_node_panics() {
        let mut c = Circuit::new();
        c.add(Element::resistor("R1", Node(5), Circuit::GROUND, 1.0));
    }

    #[test]
    fn statistics() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("R1", n1, n2, 1.0));
        c.add(Element::capacitor("C1", n2, Circuit::GROUND, 1.0));
        c.add(Element::inductor("L1", n2, Circuit::GROUND, 1.0));
        assert_eq!(c.num_elements(), 4);
        assert_eq!(c.num_storage_elements(), 2);
        assert_eq!(c.sources().len(), 1);
    }

    #[test]
    fn spice_round_trip() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("R1", n1, n2, 1e3));
        c.add(Element::capacitor("C1", n2, Circuit::GROUND, 1e-12));
        let text = c.to_spice();
        let c2 = crate::parse_spice(&text).unwrap();
        assert_eq!(c2.num_elements(), 3);
        assert_eq!(c2.element(c2.find("R1").unwrap()).value, 1e3);
    }

    #[test]
    fn spice_names_start_with_their_kind_letter() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::vsource("vin", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("hr1", n1, n2, 1e3));
        c.add(Element::inductor("tl1", n2, Circuit::GROUND, 1e-9));
        c.add(Element::cccs("mirror", n2, Circuit::GROUND, "tl1", 2.0));
        let text = c.to_spice();
        assert!(text.contains("\nvin 1 0 "), "{text}");
        assert!(text.contains("\nRhr1 1 2 "), "{text}");
        assert!(text.contains("\nFmirror 2 0 Ltl1 "), "{text}");
        let c2 = crate::parse_spice(&text).unwrap();
        let kinds: Vec<ElementKind> = c2.elements().iter().map(|e| e.kind).collect();
        let want: Vec<ElementKind> = c.elements().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, want);
        assert_eq!(c2.find(&c2.elements()[3].ctrl_branch), Some(ElementId(2)));
    }
}
