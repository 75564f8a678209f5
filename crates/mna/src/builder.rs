//! MNA system construction and frequency-domain solves.

use crate::MnaError;
use awesym_circuit::{Circuit, Element, ElementId, ElementKind, Node};
use awesym_linalg::Complex64;
use awesym_sparse::{Csc, LuOptions, SparseLu, Triplets};
use std::collections::HashMap;

/// One entry of an element's stamp derivative: `(row, col, ∂value/∂p)`.
pub type StampEntry = (usize, usize, f64);

/// An observation point for transfer-function analyses.
///
/// Node voltages give voltage gains, branch currents give transfer
/// admittances/current gains (the probed element must carry an explicit
/// MNA branch current: V source, inductor, VCVS, or CCVS), and
/// differential probes observe `v(p) − v(n)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Voltage of a node (ground probes read 0).
    NodeVoltage(Node),
    /// `v(p) − v(n)`.
    DifferentialVoltage(Node, Node),
    /// Branch current of the named voltage-defined element.
    BranchCurrent(String),
}

/// The MNA formulation `(G + s·C)·x = b` of a [`Circuit`].
///
/// Unknown ordering: node voltages for nodes `1..num_nodes` first (node `k`
/// at index `k − 1`), then one branch current per voltage-defined element in
/// circuit order.
#[derive(Debug, Clone)]
pub struct Mna {
    num_nodes: usize,
    dim: usize,
    // `num_nodes` is retained for diagnostics; see [`Mna::num_nodes`].
    g: Csc<f64>,
    c: Csc<f64>,
    branch_of: HashMap<String, usize>,
    /// RHS pattern per independent source at unit amplitude.
    unit_rhs: HashMap<ElementId, Vec<(usize, f64)>>,
    /// Source values as stamped (for [`Mna::dc_solve`]).
    source_values: Vec<(ElementId, f64)>,
}

impl Mna {
    /// Builds the MNA system for a circuit.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownControlBranch`] when a CCCS/CCVS
    /// references a branch that carries no explicit current.
    pub fn build(circuit: &Circuit) -> Result<Mna, MnaError> {
        Self::build_substituted(circuit, |_| None)
    }

    /// Builds the MNA system of `circuit` with some elements stamped as
    /// others: `substitute(id)` names the element to stamp in place of
    /// element `id`, or `None` to stamp the circuit's own. The circuit's
    /// node numbering and element order are kept, so the unknowns are
    /// those of [`Mna::build`] on a copy of the circuit with the
    /// substitutes swapped in.
    ///
    /// # Errors
    ///
    /// As [`Mna::build`].
    pub fn build_substituted<'s>(
        circuit: &Circuit,
        substitute: impl Fn(ElementId) -> Option<&'s Element>,
    ) -> Result<Mna, MnaError> {
        let elements = || {
            circuit
                .elements()
                .iter()
                .enumerate()
                .map(|(idx, e)| (ElementId(idx), substitute(ElementId(idx)).unwrap_or(e)))
        };
        let num_nodes = circuit.num_nodes();
        // Assign branch currents.
        let mut branch_of = HashMap::new();
        let mut next = num_nodes - 1;
        for (_, e) in elements() {
            if e.needs_branch_current() {
                branch_of.insert(e.name.clone(), next);
                next += 1;
            }
        }
        let dim = next;
        let mut g = Triplets::new(dim);
        let mut c = Triplets::new(dim);
        let mut unit_rhs: HashMap<ElementId, Vec<(usize, f64)>> = HashMap::new();
        let mut source_values = Vec::new();

        for (id, e) in elements() {
            stamp_element(e, &branch_of, |m, r, col, v| match m {
                MatrixSel::G => g.push(r, col, v),
                MatrixSel::C => c.push(r, col, v),
            })?;
            match e.kind {
                ElementKind::Vsource => {
                    let l = branch_of[&e.name];
                    unit_rhs.insert(id, vec![(l, 1.0)]);
                    source_values.push((id, e.value));
                }
                ElementKind::Isource => {
                    let mut rhs = Vec::new();
                    if let Some(p) = node_index(e.p) {
                        rhs.push((p, -1.0));
                    }
                    if let Some(n) = node_index(e.n) {
                        rhs.push((n, 1.0));
                    }
                    unit_rhs.insert(id, rhs);
                    source_values.push((id, e.value));
                }
                _ => {}
            }
        }
        Ok(Mna {
            num_nodes,
            dim,
            g: g.to_csc(),
            c: c.to_csc(),
            branch_of,
            unit_rhs,
            source_values,
        })
    }

    /// System dimension (non-ground nodes + branch currents).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of circuit nodes including ground.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The conductance matrix `G`.
    pub fn g(&self) -> &Csc<f64> {
        &self.g
    }

    /// The susceptance (storage) matrix `C`.
    pub fn c(&self) -> &Csc<f64> {
        &self.c
    }

    /// Takes `G` and `C` out of the system, leaving the rest behind.
    pub fn into_matrices(self) -> (Csc<f64>, Csc<f64>) {
        (self.g, self.c)
    }

    /// Unknown index of a node voltage (`None` for ground).
    pub fn node_index(&self, n: Node) -> Option<usize> {
        node_index(n)
    }

    /// Unknown index of the branch current carried by a named element.
    pub fn branch_index(&self, name: &str) -> Option<usize> {
        self.branch_of.get(name).copied()
    }

    /// Unit-amplitude RHS vector for an independent source.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::BadReference`] when `source` is not an
    /// independent source of this circuit.
    pub fn unit_source_vector(&self, source: ElementId) -> Result<Vec<f64>, MnaError> {
        let pattern = self
            .unit_rhs
            .get(&source)
            .ok_or_else(|| MnaError::BadReference {
                what: format!("element #{} is not an independent source", source.0),
            })?;
        let mut b = vec![0.0; self.dim];
        for &(i, v) in pattern {
            b[i] = v;
        }
        Ok(b)
    }

    /// Selector vector `l` such that `lᵀ x` is the voltage of `node`.
    pub fn output_selector(&self, node: Node) -> Vec<f64> {
        let mut l = vec![0.0; self.dim];
        if let Some(i) = node_index(node) {
            l[i] = 1.0;
        }
        l
    }

    /// Selector vector for an arbitrary probe (node voltage, branch
    /// current, or a differential voltage).
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::BadReference`] when a branch probe names an
    /// element that carries no explicit MNA current.
    pub fn probe_selector(&self, probe: &Probe) -> Result<Vec<f64>, MnaError> {
        let mut l = vec![0.0; self.dim];
        match probe {
            Probe::NodeVoltage(n) => {
                if let Some(i) = node_index(*n) {
                    l[i] = 1.0;
                }
            }
            Probe::DifferentialVoltage(p, n) => {
                if let Some(i) = node_index(*p) {
                    l[i] += 1.0;
                }
                if let Some(i) = node_index(*n) {
                    l[i] -= 1.0;
                }
            }
            Probe::BranchCurrent(name) => {
                let i = self
                    .branch_of
                    .get(name)
                    .ok_or_else(|| MnaError::BadReference {
                        what: format!("element {name} has no branch current"),
                    })?;
                l[*i] = 1.0;
            }
        }
        Ok(l)
    }

    /// Voltage of `node` in a solution vector (0 for ground).
    pub fn voltage(&self, x: &[f64], node: Node) -> f64 {
        node_index(node).map_or(0.0, |i| x[i])
    }

    /// DC solve with every independent source at its stamped value.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] when `G` is singular.
    pub fn dc_solve(&self) -> Result<Vec<f64>, MnaError> {
        let lu = SparseLu::factor(&self.g, LuOptions::default())?;
        let mut b = vec![0.0; self.dim];
        for &(id, value) in &self.source_values {
            for &(i, u) in &self.unit_rhs[&id] {
                b[i] += u * value;
            }
        }
        Ok(lu.solve(&b))
    }

    /// Solves `(G + jω·C)·x = b` for a unit-amplitude input source.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::Singular`] when the complex system is singular at
    /// this frequency and [`MnaError::BadReference`] for a non-source input.
    pub fn ac_solve(&self, input: ElementId, omega: f64) -> Result<Vec<Complex64>, MnaError> {
        let gz = self.g.map(Complex64::from_re);
        let cz = self.c.map(|v| Complex64::new(0.0, omega * v));
        let a = gz.linear_combination(Complex64::ONE, &cz, Complex64::ONE);
        let lu = SparseLu::factor(&a, LuOptions::default())?;
        let b_real = self.unit_source_vector(input)?;
        let b: Vec<Complex64> = b_real.iter().map(|&v| Complex64::from_re(v)).collect();
        Ok(lu.solve(&b))
    }

    /// Frequency response `H(jω) = v(output)/u` over a list of angular
    /// frequencies, for a unit-amplitude input source.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`Mna::ac_solve`].
    pub fn ac_transfer(
        &self,
        input: ElementId,
        output: Node,
        omegas: &[f64],
    ) -> Result<Vec<Complex64>, MnaError> {
        let out = node_index(output);
        omegas
            .iter()
            .map(|&w| {
                let x = self.ac_solve(input, w)?;
                Ok(out.map_or(Complex64::ZERO, |i| x[i]))
            })
            .collect()
    }

    /// Derivative stamps `(∂G/∂p, ∂C/∂p)` of an element with respect to its
    /// stored value `p`. Used by AWE's adjoint sensitivity analysis.
    ///
    /// # Errors
    ///
    /// Returns [`MnaError::UnknownControlBranch`] for dangling control
    /// references (cannot normally happen after a successful
    /// [`Mna::build`]).
    pub fn stamp_derivative(
        &self,
        e: &Element,
    ) -> Result<(Vec<StampEntry>, Vec<StampEntry>), MnaError> {
        let mut dg = Vec::new();
        let mut dc = Vec::new();
        stamp_element_derivative(e, &self.branch_of, |m, r, col, v| match m {
            MatrixSel::G => dg.push((r, col, v)),
            MatrixSel::C => dc.push((r, col, v)),
        })?;
        Ok((dg, dc))
    }
}

fn node_index(n: Node) -> Option<usize> {
    if n.is_ground() {
        None
    } else {
        Some(n.0 - 1)
    }
}

#[derive(Clone, Copy)]
enum MatrixSel {
    G,
    C,
}

/// Stamps ±v at the four positions of a two-terminal admittance.
fn stamp_admittance(
    p: Node,
    n: Node,
    v: f64,
    m: MatrixSel,
    f: &mut impl FnMut(MatrixSel, usize, usize, f64),
) {
    let pi = node_index(p);
    let ni = node_index(n);
    if let Some(a) = pi {
        f(m, a, a, v);
    }
    if let Some(b) = ni {
        f(m, b, b, v);
    }
    if let (Some(a), Some(b)) = (pi, ni) {
        f(m, a, b, -v);
        f(m, b, a, -v);
    }
}

/// Core stamping shared by `G`/`C` assembly; `scale` multiplies the
/// value-dependent entries (1.0 for assembly, used with the chain rule for
/// derivatives).
fn stamp_with(
    e: &Element,
    branch_of: &HashMap<String, usize>,
    assemble: bool,
    f: &mut impl FnMut(MatrixSel, usize, usize, f64),
) -> Result<(), MnaError> {
    let ctrl = |name: &str| -> Result<usize, MnaError> {
        branch_of
            .get(name)
            .copied()
            .ok_or_else(|| MnaError::UnknownControlBranch {
                element: e.name.clone(),
                branch: name.to_string(),
            })
    };
    // For derivative stamping, `dv` is ∂(entry)/∂(e.value); for assembly the
    // entry itself is emitted.
    match e.kind {
        ElementKind::Resistor => {
            let v = if assemble {
                1.0 / e.value
            } else {
                -1.0 / (e.value * e.value)
            };
            stamp_admittance(e.p, e.n, v, MatrixSel::G, f);
        }
        ElementKind::Capacitor => {
            let v = if assemble { e.value } else { 1.0 };
            stamp_admittance(e.p, e.n, v, MatrixSel::C, f);
        }
        ElementKind::Inductor => {
            let l = branch_of[&e.name];
            if assemble {
                if let Some(p) = node_index(e.p) {
                    f(MatrixSel::G, l, p, 1.0);
                    f(MatrixSel::G, p, l, 1.0);
                }
                if let Some(n) = node_index(e.n) {
                    f(MatrixSel::G, l, n, -1.0);
                    f(MatrixSel::G, n, l, -1.0);
                }
                f(MatrixSel::C, l, l, -e.value);
            } else {
                f(MatrixSel::C, l, l, -1.0);
            }
        }
        ElementKind::Vsource => {
            if assemble {
                let l = branch_of[&e.name];
                if let Some(p) = node_index(e.p) {
                    f(MatrixSel::G, l, p, 1.0);
                    f(MatrixSel::G, p, l, 1.0);
                }
                if let Some(n) = node_index(e.n) {
                    f(MatrixSel::G, l, n, -1.0);
                    f(MatrixSel::G, n, l, -1.0);
                }
            }
            // The source amplitude lives on the RHS; no value-dependent
            // matrix entries.
        }
        ElementKind::Isource => {
            // RHS only.
        }
        ElementKind::Vccs => {
            let v = if assemble { e.value } else { 1.0 };
            let pi = node_index(e.p);
            let ni = node_index(e.n);
            let cpi = node_index(e.cp);
            let cni = node_index(e.cn);
            if let Some(p) = pi {
                if let Some(cp) = cpi {
                    f(MatrixSel::G, p, cp, v);
                }
                if let Some(cn) = cni {
                    f(MatrixSel::G, p, cn, -v);
                }
            }
            if let Some(n) = ni {
                if let Some(cp) = cpi {
                    f(MatrixSel::G, n, cp, -v);
                }
                if let Some(cn) = cni {
                    f(MatrixSel::G, n, cn, v);
                }
            }
        }
        ElementKind::Vcvs => {
            let l = branch_of[&e.name];
            if assemble {
                if let Some(p) = node_index(e.p) {
                    f(MatrixSel::G, l, p, 1.0);
                    f(MatrixSel::G, p, l, 1.0);
                }
                if let Some(n) = node_index(e.n) {
                    f(MatrixSel::G, l, n, -1.0);
                    f(MatrixSel::G, n, l, -1.0);
                }
            }
            let v = if assemble { e.value } else { 1.0 };
            if let Some(cp) = node_index(e.cp) {
                f(MatrixSel::G, l, cp, -v);
            }
            if let Some(cn) = node_index(e.cn) {
                f(MatrixSel::G, l, cn, v);
            }
        }
        ElementKind::Cccs => {
            let lc = ctrl(&e.ctrl_branch)?;
            let v = if assemble { e.value } else { 1.0 };
            if let Some(p) = node_index(e.p) {
                f(MatrixSel::G, p, lc, v);
            }
            if let Some(n) = node_index(e.n) {
                f(MatrixSel::G, n, lc, -v);
            }
        }
        ElementKind::Ccvs => {
            let l = branch_of[&e.name];
            let lc = ctrl(&e.ctrl_branch)?;
            if assemble {
                if let Some(p) = node_index(e.p) {
                    f(MatrixSel::G, l, p, 1.0);
                    f(MatrixSel::G, p, l, 1.0);
                }
                if let Some(n) = node_index(e.n) {
                    f(MatrixSel::G, l, n, -1.0);
                    f(MatrixSel::G, n, l, -1.0);
                }
            }
            let v = if assemble { e.value } else { 1.0 };
            f(MatrixSel::G, l, lc, -v);
        }
    }
    Ok(())
}

fn stamp_element(
    e: &Element,
    branch_of: &HashMap<String, usize>,
    mut f: impl FnMut(MatrixSel, usize, usize, f64),
) -> Result<(), MnaError> {
    stamp_with(e, branch_of, true, &mut f)
}

fn stamp_element_derivative(
    e: &Element,
    branch_of: &HashMap<String, usize>,
    mut f: impl FnMut(MatrixSel, usize, usize, f64),
) -> Result<(), MnaError> {
    stamp_with(e, branch_of, false, &mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::Element;

    fn divider() -> (Circuit, Node, Node) {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::vsource("V1", n1, Circuit::GROUND, 10.0));
        c.add(Element::resistor("R1", n1, n2, 1e3));
        c.add(Element::resistor("R2", n2, Circuit::GROUND, 1e3));
        (c, n1, n2)
    }

    #[test]
    fn dc_voltage_divider() {
        let (c, n1, n2) = divider();
        let mna = Mna::build(&c).unwrap();
        let x = mna.dc_solve().unwrap();
        assert!((mna.voltage(&x, n1) - 10.0).abs() < 1e-9);
        assert!((mna.voltage(&x, n2) - 5.0).abs() < 1e-9);
        // Branch current of V1: 10 V across 2 kΩ → 5 mA, flowing out of +.
        let i = x[mna.branch_index("V1").unwrap()];
        assert!((i + 5e-3).abs() < 1e-9);
    }

    #[test]
    fn dc_with_current_source() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        c.add(Element::isource("I1", Circuit::GROUND, n1, 1e-3));
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 1e3));
        let mna = Mna::build(&c).unwrap();
        let x = mna.dc_solve().unwrap();
        assert!((mna.voltage(&x, n1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vcvs_amplifier() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::vsource("V1", n1, Circuit::GROUND, 2.0));
        c.add(Element::vcvs(
            "E1",
            n2,
            Circuit::GROUND,
            n1,
            Circuit::GROUND,
            5.0,
        ));
        c.add(Element::resistor("RL", n2, Circuit::GROUND, 1e3));
        let mna = Mna::build(&c).unwrap();
        let x = mna.dc_solve().unwrap();
        assert!((mna.voltage(&x, n2) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn cccs_mirror() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 1.0)); // i = 1 A through V1
        c.add(Element::cccs("F1", Circuit::GROUND, n2, "V1", 2.0));
        c.add(Element::resistor("R2", n2, Circuit::GROUND, 1.0));
        let mna = Mna::build(&c).unwrap();
        let x = mna.dc_solve().unwrap();
        // i(V1) = -1 A (current out of + terminal through the source),
        // F pushes 2·i(V1) from ground to n2: v(n2) = -(-2)·1 … sign check:
        let v2 = mna.voltage(&x, n2);
        assert!((v2.abs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ccvs_transresistance() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 1.0));
        c.add(Element::ccvs("H1", n2, Circuit::GROUND, "V1", 3.0));
        c.add(Element::resistor("R2", n2, Circuit::GROUND, 1.0));
        let mna = Mna::build(&c).unwrap();
        let x = mna.dc_solve().unwrap();
        assert!((mna.voltage(&x, n2).abs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_control_branch_rejected() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        c.add(Element::cccs("F1", n1, Circuit::GROUND, "Vmissing", 1.0));
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 1.0));
        assert!(matches!(
            Mna::build(&c),
            Err(MnaError::UnknownControlBranch { .. })
        ));
    }

    #[test]
    fn floating_node_is_singular() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        c.add(Element::isource("I1", Circuit::GROUND, n1, 1.0));
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 1.0));
        // n2 has only a capacitor: G is singular.
        c.add(Element::capacitor("C1", n2, Circuit::GROUND, 1.0));
        let mna = Mna::build(&c).unwrap();
        assert!(matches!(mna.dc_solve(), Err(MnaError::Singular(_))));
    }

    #[test]
    fn ac_rc_lowpass() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        let vid = c.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("R1", n1, n2, 1e3));
        c.add(Element::capacitor("C1", n2, Circuit::GROUND, 1e-6));
        let mna = Mna::build(&c).unwrap();
        let wc = 1.0 / (1e3 * 1e-6); // corner: 1000 rad/s
        let h = mna.ac_transfer(vid, n2, &[0.0, wc, 100.0 * wc]).unwrap();
        assert!((h[0].abs() - 1.0).abs() < 1e-9);
        assert!((h[1].abs() - 1.0 / 2.0_f64.sqrt()).abs() < 1e-9);
        assert!(h[2].abs() < 0.011);
    }

    #[test]
    fn ac_rlc_resonance() {
        // Series RLC driven by V, output across C: |H| peaks near w0.
        let mut c = Circuit::new();
        let n1 = c.node("1");
        let n2 = c.node("2");
        let n3 = c.node("3");
        let vid = c.add(Element::vsource("V1", n1, Circuit::GROUND, 1.0));
        c.add(Element::resistor("R1", n1, n2, 10.0));
        c.add(Element::inductor("L1", n2, n3, 1e-3));
        c.add(Element::capacitor("C1", n3, Circuit::GROUND, 1e-6));
        let mna = Mna::build(&c).unwrap();
        let w0 = 1.0 / (1e-3_f64 * 1e-6).sqrt();
        let h = mna
            .ac_transfer(vid, n3, &[w0 / 10.0, w0, w0 * 10.0])
            .unwrap();
        assert!(h[1].abs() > h[0].abs());
        assert!(h[1].abs() > h[2].abs());
        // Q = w0 L / R = 3.16; |H(jw0)| = Q.
        assert!((h[1].abs() - 3.1623).abs() < 1e-2);
    }

    #[test]
    fn stamp_derivative_resistor() {
        let (c, _, _) = divider();
        let mna = Mna::build(&c).unwrap();
        let r1 = c.element(c.find("R1").unwrap());
        let (dg, dc) = mna.stamp_derivative(r1).unwrap();
        assert!(dc.is_empty());
        // d(1/R)/dR = -1/R² = -1e-6 at four positions.
        assert_eq!(dg.len(), 4);
        for &(_, _, v) in &dg {
            assert!((v.abs() - 1e-6).abs() < 1e-18);
        }
    }

    #[test]
    fn stamp_derivative_capacitor_and_inductor() {
        let mut c = Circuit::new();
        let n1 = c.node("1");
        c.add(Element::isource("I1", Circuit::GROUND, n1, 1.0));
        c.add(Element::resistor("R1", n1, Circuit::GROUND, 1.0));
        c.add(Element::capacitor("C1", n1, Circuit::GROUND, 2e-12));
        c.add(Element::inductor("L1", n1, Circuit::GROUND, 1e-9));
        let mna = Mna::build(&c).unwrap();
        let (dg, dcm) = mna
            .stamp_derivative(c.element(c.find("C1").unwrap()))
            .unwrap();
        assert!(dg.is_empty());
        assert_eq!(dcm, vec![(0, 0, 1.0)]);
        let (dg, dcm) = mna
            .stamp_derivative(c.element(c.find("L1").unwrap()))
            .unwrap();
        assert!(dg.is_empty());
        let l = mna.branch_index("L1").unwrap();
        assert_eq!(dcm, vec![(l, l, -1.0)]);
    }

    #[test]
    fn unit_source_vector_shapes() {
        let (c, _, _) = divider();
        let mna = Mna::build(&c).unwrap();
        let v1 = c.find("V1").unwrap();
        let b = mna.unit_source_vector(v1).unwrap();
        assert_eq!(b.iter().filter(|&&v| v != 0.0).count(), 1);
        assert!(mna.unit_source_vector(c.find("R1").unwrap()).is_err());
    }
}
