//! Builds the partitioned system: numeric-partition port moments plus
//! symbolic stamps on the small global matrix.

use crate::{PartitionError, SymbolBinding, SymbolRole};
use awesym_circuit::{Circuit, Element, ElementId, Node};
use awesym_linalg::Mat;
use awesym_mna::Mna;
use awesym_sparse::{Csc, LuOptions, SparseLu, Triplets};
use awesym_symbolic::SymbolSet;
use std::collections::BTreeSet;

/// Largest supported port count (bounded by the division-free symbolic
/// adjugate).
pub const MAX_PORTS: usize = 12;

/// Largest supported approximation order `q`. The paper keeps `q < 5`
/// and nothing bundled compiles above 4; 8 leaves that headroom while
/// staying where a compile is still measured in seconds (a 4-symbol,
/// 20-segment RC ladder at order 8: 209k tape ops, 2.1 s, 138 MiB).
/// Checked before anything is sized by the order: the moment count
/// `2q` sizes the recursion, and the symbolic degrees grow with it
/// until the exponents overflow.
pub const MAX_ORDER: usize = 8;

/// One stamp entry `(row, col, coefficient)`: the matrix entry gains
/// `coefficient · σ`.
pub type Stamp = (usize, usize, f64);

/// The partitioned formulation of a circuit with symbolic elements.
///
/// Splits the MNA unknowns into the small *port* set (touched by symbol
/// stamps, the input, and the output) and the large numeric remainder; the
/// numeric partition is reduced to its multiport admittance moment
/// matrices `Y_k` (the Schur complement of the internal block, expanded in
/// `s`), after which the symbolic computation proceeds on matrices whose
/// dimension is proportional to the number of symbols — the paper's
/// moment-level partitioning.
#[derive(Debug)]
pub struct SymbolicSystem {
    symbols: SymbolSet,
    nominal: Vec<f64>,
    /// Port unknown indices (sorted, full-system numbering).
    ports: Vec<usize>,
    /// Numeric port moment matrices `Y_0 … Y_{K−1}` (ports × ports).
    y: Vec<Mat>,
    /// Per-symbol stamps into `Ŷ_0`, in *port* indices.
    stamps_g_port: Vec<Vec<Stamp>>,
    /// Per-symbol stamps into `Ŷ_1`, in *port* indices.
    stamps_c_port: Vec<Vec<Stamp>>,
    /// Per-symbol stamps in *full-system* indices (for reference solves).
    stamps_g_full: Vec<Vec<Stamp>>,
    stamps_c_full: Vec<Vec<Stamp>>,
    /// Port RHS for a unit input.
    j: Vec<f64>,
    /// Port output selectors, one per probe.
    ls: Vec<Vec<f64>>,
    /// Full numeric system (symbol contributions excluded).
    full_g: Csc<f64>,
    full_c: Csc<f64>,
    full_b: Vec<f64>,
    full_ls: Vec<Vec<f64>>,
}

impl SymbolicSystem {
    /// Assembles the partitioned system and computes `num_moments` port
    /// moment matrices.
    ///
    /// # Errors
    ///
    /// - [`PartitionError::BadBinding`] / [`PartitionError::RoleMismatch`]
    ///   for malformed symbol bindings;
    /// - [`PartitionError::TooManyPorts`] when the symbolic block would
    ///   exceed [`MAX_PORTS`];
    /// - [`PartitionError::SingularNumericPartition`] when an internal node
    ///   has no DC path independent of the ports;
    /// - [`PartitionError::Awe`] for formulation failures.
    pub fn assemble(
        circuit: &Circuit,
        input: ElementId,
        output: Node,
        bindings: &[SymbolBinding],
        num_moments: usize,
    ) -> Result<Self, PartitionError> {
        Self::assemble_probe(
            circuit,
            input,
            &awesym_mna::Probe::NodeVoltage(output),
            bindings,
            num_moments,
        )
    }

    /// As [`SymbolicSystem::assemble`], but observing an arbitrary probe
    /// (branch current or differential voltage) instead of a node voltage.
    ///
    /// # Errors
    ///
    /// As [`SymbolicSystem::assemble`], plus a bad-reference error for a
    /// branch probe without an explicit current.
    pub fn assemble_probe(
        circuit: &Circuit,
        input: ElementId,
        probe: &awesym_mna::Probe,
        bindings: &[SymbolBinding],
        num_moments: usize,
    ) -> Result<Self, PartitionError> {
        Self::assemble_multi(
            circuit,
            input,
            std::slice::from_ref(probe),
            bindings,
            num_moments,
        )
    }

    /// Assembles one partitioned system observing *several* probes at
    /// once: the expensive numeric reduction and the symbolic moment
    /// recursion are shared, and each probe gets its own output selector
    /// (used by the coupled-line workload for the direct and cross-talk
    /// outputs).
    ///
    /// # Errors
    ///
    /// As [`SymbolicSystem::assemble`]; `probes` must be non-empty.
    pub fn assemble_multi(
        circuit: &Circuit,
        input: ElementId,
        probes: &[awesym_mna::Probe],
        bindings: &[SymbolBinding],
        num_moments: usize,
    ) -> Result<Self, PartitionError> {
        if probes.is_empty() {
            return Err(PartitionError::BadBinding {
                what: "no probes given".into(),
            });
        }
        validate_bindings(circuit, bindings)?;
        let mut symbols = SymbolSet::new();
        let mut nominal = Vec::new();
        for b in bindings {
            symbols.intern(&b.name);
            nominal.push(b.nominal(circuit));
        }

        // Numeric skeleton: symbolic elements are neutralized so their
        // contribution enters only through the σ-stamps.
        let mna = skeleton_mna(circuit, bindings)?;
        let full_b = mna.unit_source_vector(input)?;
        let full_ls: Vec<Vec<f64>> = probes
            .iter()
            .map(|p| mna.probe_selector(p))
            .collect::<Result<_, _>>()?;
        let dim = mna.dim();

        // Symbol stamps in full-system indices.
        let mut stamps_g_full: Vec<Vec<Stamp>> = Vec::new();
        let mut stamps_c_full: Vec<Vec<Stamp>> = Vec::new();
        for b in bindings {
            let mut sg = Vec::new();
            let mut sc = Vec::new();
            for &eid in &b.elements {
                let e = circuit.element(eid);
                stamp_symbol(&mna, e, b.role, &mut sg, &mut sc);
            }
            stamps_g_full.push(sg);
            stamps_c_full.push(sc);
        }

        // Port set: every index touched by a stamp, every terminal of a
        // symbolic element (a node whose only numeric connection may be the
        // neutralized element must not land in the internal block), the
        // RHS, and the output.
        let mut port_set: BTreeSet<usize> = BTreeSet::new();
        for s in stamps_g_full.iter().chain(stamps_c_full.iter()) {
            for &(r, c, _) in s {
                port_set.insert(r);
                port_set.insert(c);
            }
        }
        for b in bindings {
            for &eid in &b.elements {
                let e = circuit.element(eid);
                for node in [e.p, e.n] {
                    if let Some(i) = mna.node_index(node) {
                        port_set.insert(i);
                    }
                }
            }
        }
        for (i, &v) in full_b.iter().enumerate() {
            if v != 0.0 {
                port_set.insert(i);
            }
        }
        for full_l in &full_ls {
            for (i, &v) in full_l.iter().enumerate() {
                if v != 0.0 {
                    port_set.insert(i);
                }
            }
        }
        let ports: Vec<usize> = port_set.into_iter().collect();
        if ports.len() > MAX_PORTS {
            return Err(PartitionError::TooManyPorts {
                ports: ports.len(),
                max: MAX_PORTS,
            });
        }
        let slots = Slot::table(dim, &ports);

        // Map stamps into port indices; every stamp index is a port.
        let port = |i: usize| match slots[i] {
            Slot::Port(k) => k,
            Slot::Internal(_) => unreachable!("stamp index {i} is a port"),
        };
        let map_stamps = |full: &Vec<Vec<Stamp>>| -> Vec<Vec<Stamp>> {
            full.iter()
                .map(|s| s.iter().map(|&(r, c, v)| (port(r), port(c), v)).collect())
                .collect()
        };
        let stamps_g_port = map_stamps(&stamps_g_full);
        let stamps_c_port = map_stamps(&stamps_c_full);

        // Reduce the numeric partition.
        let y = port_moment_matrices(&mna, &slots, ports.len(), num_moments)?;

        let j: Vec<f64> = ports.iter().map(|&i| full_b[i]).collect();
        let ls: Vec<Vec<f64>> = full_ls
            .iter()
            .map(|full_l| ports.iter().map(|&i| full_l[i]).collect())
            .collect();

        let (full_g, full_c) = mna.into_matrices();
        Ok(SymbolicSystem {
            symbols,
            nominal,
            ports,
            y,
            stamps_g_port,
            stamps_c_port,
            stamps_g_full,
            stamps_c_full,
            j,
            ls,
            full_g,
            full_c,
            full_b,
            full_ls,
        })
    }

    /// The symbol set (order matches evaluation vectors).
    pub fn symbols(&self) -> &SymbolSet {
        &self.symbols
    }

    /// Nominal symbol values from the circuit.
    pub fn nominal(&self) -> &[f64] {
        &self.nominal
    }

    /// Number of ports of the global symbolic system.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// The numeric port moment matrices `Y_k`.
    pub fn port_moments(&self) -> &[Mat] {
        &self.y
    }

    /// Per-symbol `Ŷ_0` stamps in port indices.
    pub fn stamps_g(&self) -> &[Vec<Stamp>] {
        &self.stamps_g_port
    }

    /// Per-symbol `Ŷ_1` stamps in port indices.
    pub fn stamps_c(&self) -> &[Vec<Stamp>] {
        &self.stamps_c_port
    }

    /// Port RHS for the unit input.
    pub fn rhs(&self) -> &[f64] {
        &self.j
    }

    /// Port output selector of the first probe.
    pub fn selector(&self) -> &[f64] {
        &self.ls[0]
    }

    /// Port output selectors, one per probe.
    pub fn selectors(&self) -> &[Vec<f64>] {
        &self.ls
    }

    /// Number of probes observed.
    pub fn num_outputs(&self) -> usize {
        self.ls.len()
    }

    /// Assembles the *full* numeric `G`, `C` matrices with the symbols
    /// substituted at `vals` — the non-partitioned system a plain AWE run
    /// would use.
    ///
    /// # Panics
    ///
    /// Panics when `vals.len()` differs from the symbol count.
    pub fn full_system_at(&self, vals: &[f64]) -> (Csc<f64>, Csc<f64>) {
        assert_eq!(vals.len(), self.nominal.len(), "symbol value count");
        let dim = self.full_b.len();
        let mut g = Triplets::new(dim);
        let mut c = Triplets::new(dim);
        for col in 0..dim {
            for (r, v) in self.full_g.col_iter(col) {
                g.push(r, col, v);
            }
            for (r, v) in self.full_c.col_iter(col) {
                c.push(r, col, v);
            }
        }
        for (s, stamps) in self.stamps_g_full.iter().enumerate() {
            for &(r, cidx, v) in stamps {
                g.push(r, cidx, v * vals[s]);
            }
        }
        for (s, stamps) in self.stamps_c_full.iter().enumerate() {
            for &(r, cidx, v) in stamps {
                c.push(r, cidx, v * vals[s]);
            }
        }
        (g.to_csc(), c.to_csc())
    }

    /// Reference (non-partitioned) moment computation: substitutes the
    /// symbol values, factors the full `G`, and runs the plain AWE moment
    /// recursion. This is the per-datapoint cost that AWEsymbolic's
    /// compiled evaluation amortizes away.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::Awe`] when the substituted system is
    /// singular.
    pub fn reference_moments(
        &self,
        vals: &[f64],
        count: usize,
    ) -> Result<Vec<f64>, PartitionError> {
        self.reference_moments_for(0, vals, count)
    }

    /// As [`SymbolicSystem::reference_moments`] for probe `output_idx`.
    ///
    /// # Errors
    ///
    /// As [`SymbolicSystem::reference_moments`].
    ///
    /// # Panics
    ///
    /// Panics when `output_idx` is out of range.
    pub fn reference_moments_for(
        &self,
        output_idx: usize,
        vals: &[f64],
        count: usize,
    ) -> Result<Vec<f64>, PartitionError> {
        let full_l = &self.full_ls[output_idx];
        let (g, c) = self.full_system_at(vals);
        let lu = SparseLu::factor(&g, LuOptions::default()).map_err(awesym_mna::MnaError::from)?;
        let mut m = Vec::with_capacity(count);
        let mut x = lu.solve(&self.full_b);
        for _ in 0..count {
            m.push(full_l.iter().zip(&x).map(|(a, b)| a * b).sum());
            let rhs: Vec<f64> = c.mul_vec(&x).iter().map(|v| -v).collect();
            x = lu.solve(&rhs);
        }
        Ok(m)
    }

    /// Moment sensitivities `∂m_k/∂σ_e` of the full system at `vals`, via
    /// the adjoint method (used by the partial-Padé Taylor tail).
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::Awe`] when the substituted system is
    /// singular.
    pub fn moment_jacobian(
        &self,
        vals: &[f64],
        count: usize,
    ) -> Result<Vec<Vec<f64>>, PartitionError> {
        self.moment_jacobian_for(0, vals, count)
    }

    /// As [`SymbolicSystem::moment_jacobian`] for probe `output_idx`.
    ///
    /// # Errors
    ///
    /// As [`SymbolicSystem::moment_jacobian`].
    ///
    /// # Panics
    ///
    /// Panics when `output_idx` is out of range.
    pub fn moment_jacobian_for(
        &self,
        output_idx: usize,
        vals: &[f64],
        count: usize,
    ) -> Result<Vec<Vec<f64>>, PartitionError> {
        let (g, c) = self.full_system_at(vals);
        let lu = SparseLu::factor(&g, LuOptions::default()).map_err(awesym_mna::MnaError::from)?;
        // Forward and adjoint moment vectors.
        let mut xs = Vec::with_capacity(count);
        let mut x = lu.solve(&self.full_b);
        for _ in 0..count {
            xs.push(x.clone());
            let rhs: Vec<f64> = c.mul_vec(&x).iter().map(|v| -v).collect();
            x = lu.solve(&rhs);
        }
        let mut ys = Vec::with_capacity(count);
        let mut yv = lu.solve_transposed(&self.full_ls[output_idx]);
        for _ in 0..count {
            ys.push(yv.clone());
            let rhs: Vec<f64> = c.mul_vec_transposed(&yv).iter().map(|v| -v).collect();
            yv = lu.solve_transposed(&rhs);
        }
        // ∂m_k/∂σ = −Σ_j Y_jᵀ (∂G/∂σ) X_{k−j} − Σ_j Y_jᵀ (∂C/∂σ) X_{k−1−j}.
        let nsym = self.nominal.len();
        let mut jac = vec![vec![0.0; nsym]; count];
        for (s, (g_stamps, c_stamps)) in self
            .stamps_g_full
            .iter()
            .zip(&self.stamps_c_full)
            .enumerate()
            .take(nsym)
        {
            for k in 0..count {
                let mut acc = 0.0;
                for j in 0..=k {
                    for &(r, cidx, v) in g_stamps {
                        acc -= ys[j][r] * v * xs[k - j][cidx];
                    }
                }
                for j in 0..k {
                    for &(r, cidx, v) in c_stamps {
                        acc -= ys[j][r] * v * xs[k - 1 - j][cidx];
                    }
                }
                jac[k][s] = acc;
            }
        }
        Ok(jac)
    }
}

fn validate_bindings(circuit: &Circuit, bindings: &[SymbolBinding]) -> Result<(), PartitionError> {
    if bindings.is_empty() {
        return Err(PartitionError::BadBinding {
            what: "no symbols given".into(),
        });
    }
    let mut seen_elem = BTreeSet::new();
    let mut seen_name = BTreeSet::new();
    for b in bindings {
        if !seen_name.insert(b.name.clone()) {
            return Err(PartitionError::BadBinding {
                what: format!("duplicate symbol name {}", b.name),
            });
        }
        if b.elements.is_empty() {
            return Err(PartitionError::BadBinding {
                what: format!("symbol {} binds no elements", b.name),
            });
        }
        for &eid in &b.elements {
            if eid.0 >= circuit.num_elements() {
                return Err(PartitionError::BadBinding {
                    what: format!("symbol {} binds missing element #{}", b.name, eid.0),
                });
            }
            if !seen_elem.insert(eid) {
                return Err(PartitionError::BadBinding {
                    what: format!("element #{} bound twice", eid.0),
                });
            }
            let e = circuit.element(eid);
            if e.kind != b.expected_kind() {
                return Err(PartitionError::RoleMismatch {
                    symbol: b.name.clone(),
                    element: e.name.clone(),
                });
            }
        }
    }
    Ok(())
}

/// The MNA system of the circuit with each symbolic element neutralized
/// so the numeric stamps exclude it (its effect is restored by the
/// σ-stamps): admittance-form symbols are stamped with a value that stamps
/// to zero, and impedance-form symbols as zero-valued inductors, which
/// carry the same value-independent branch pattern. Every other element,
/// and the node and element order, are the circuit's own.
pub(crate) fn skeleton_mna(
    circuit: &Circuit,
    bindings: &[SymbolBinding],
) -> Result<Mna, awesym_mna::MnaError> {
    // Looked up twice per element: sorted by id for a binary search, which
    // stays cheap however many elements the bindings name.
    let mut neutral: Vec<(ElementId, Element)> = Vec::new();
    for b in bindings {
        for &eid in &b.elements {
            let e = circuit.element(eid);
            let stand_in = match b.role {
                SymbolRole::Conductance => Element::resistor(&e.name, e.p, e.n, f64::INFINITY),
                SymbolRole::Capacitance => Element::capacitor(&e.name, e.p, e.n, 0.0),
                SymbolRole::Transconductance => Element::vccs(&e.name, e.p, e.n, e.cp, e.cn, 0.0),
                SymbolRole::Resistance | SymbolRole::Inductance => {
                    Element::inductor(&e.name, e.p, e.n, 0.0)
                }
            };
            neutral.push((eid, stand_in));
        }
    }
    neutral.sort_unstable_by_key(|&(eid, _)| eid);
    Mna::build_substituted(circuit, |id| {
        let at = neutral.binary_search_by_key(&id, |&(eid, _)| eid).ok()?;
        Some(&neutral[at].1)
    })
}

/// Emits the σ-stamps of one element (coefficients of the symbol in
/// `G`/`C`).
pub(crate) fn stamp_symbol(
    mna: &Mna,
    e: &Element,
    role: SymbolRole,
    sg: &mut Vec<Stamp>,
    sc: &mut Vec<Stamp>,
) {
    let idx = |n: Node| mna.node_index(n);
    let four_pattern = |out: &mut Vec<Stamp>, p: Node, n: Node| {
        if let Some(a) = idx(p) {
            out.push((a, a, 1.0));
        }
        if let Some(b) = idx(n) {
            out.push((b, b, 1.0));
        }
        if let (Some(a), Some(b)) = (idx(p), idx(n)) {
            out.push((a, b, -1.0));
            out.push((b, a, -1.0));
        }
    };
    match role {
        SymbolRole::Conductance => four_pattern(sg, e.p, e.n),
        SymbolRole::Capacitance => four_pattern(sc, e.p, e.n),
        SymbolRole::Transconductance => {
            let (pi, ni, cpi, cni) = (idx(e.p), idx(e.n), idx(e.cp), idx(e.cn));
            if let Some(p) = pi {
                if let Some(cp) = cpi {
                    sg.push((p, cp, 1.0));
                }
                if let Some(cn) = cni {
                    sg.push((p, cn, -1.0));
                }
            }
            if let Some(n) = ni {
                if let Some(cp) = cpi {
                    sg.push((n, cp, -1.0));
                }
                if let Some(cn) = cni {
                    sg.push((n, cn, 1.0));
                }
            }
        }
        SymbolRole::Resistance => {
            let l = mna
                .branch_index(&e.name)
                .expect("neutralized impedance symbol has a branch");
            sg.push((l, l, -1.0));
        }
        SymbolRole::Inductance => {
            let l = mna
                .branch_index(&e.name)
                .expect("neutralized impedance symbol has a branch");
            sc.push((l, l, -1.0));
        }
    }
}

/// Where one full-system unknown lands in the port/internal split: its
/// position among the ports or in the internal (numeric) block.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Port(usize),
    Internal(usize),
}

impl Slot {
    /// The slot of every unknown `0..dim`, given the sorted port indices.
    /// Both blocks keep the full system's order.
    fn table(dim: usize, ports: &[usize]) -> Vec<Slot> {
        let mut next_port = ports.iter().copied().peekable();
        let (mut np, mut ni) = (0, 0);
        (0..dim)
            .map(|i| {
                if next_port.next_if_eq(&i).is_some() {
                    np += 1;
                    Slot::Port(np - 1)
                } else {
                    ni += 1;
                    Slot::Internal(ni - 1)
                }
            })
            .collect()
    }
}

/// Computes the port moment matrices `Y_k` of the numeric partition via
/// the Maclaurin series of the Schur complement:
///
/// ```text
/// Y(s) = A_pp(s) − A_pi(s)·A_ii(s)⁻¹·A_ip(s),   A(s) = G + s·C
/// ```
///
/// One sparse LU of `G_ii` plus `2·P` back-substitution chains produce all
/// `K` coefficient matrices.
fn port_moment_matrices(
    mna: &Mna,
    slots: &[Slot],
    np: usize,
    count: usize,
) -> Result<Vec<Mat>, PartitionError> {
    let ni = slots.len() - np;

    // Extract blocks.
    let mut gii = Triplets::new(ni);
    let mut cii = Triplets::new(ni);
    let mut gip: Vec<Vec<f64>> = vec![vec![0.0; ni]; np]; // columns, dense
    let mut cip: Vec<Vec<f64>> = vec![vec![0.0; ni]; np];
    let mut gpi: Vec<Vec<(usize, f64)>> = vec![Vec::new(); np]; // rows, sparse
    let mut cpi: Vec<Vec<(usize, f64)>> = vec![Vec::new(); np];
    let mut gpp = Mat::zeros(np, np);
    let mut cpp = Mat::zeros(np, np);
    let split = |m: &Csc<f64>,
                 ii: &mut Triplets<f64>,
                 ip: &mut [Vec<f64>],
                 pi: &mut [Vec<(usize, f64)>],
                 pp: &mut Mat| {
        for (col, &col_slot) in slots.iter().enumerate() {
            for (row, v) in m.col_iter(col) {
                match (slots[row], col_slot) {
                    (Slot::Internal(ri), Slot::Internal(ci)) => ii.push(ri, ci, v),
                    (Slot::Internal(ri), Slot::Port(cp)) => ip[cp][ri] += v,
                    (Slot::Port(rp), Slot::Internal(ci)) => pi[rp].push((ci, v)),
                    (Slot::Port(rp), Slot::Port(cp)) => pp[(rp, cp)] += v,
                }
            }
        }
    };
    split(mna.g(), &mut gii, &mut gip, &mut gpi, &mut gpp);
    split(mna.c(), &mut cii, &mut cip, &mut cpi, &mut cpp);
    let gii = gii.to_csc();
    let cii = cii.to_csc();

    let mut y = vec![Mat::zeros(np, np); count];
    for (k, yk) in y.iter_mut().enumerate().take(count.min(2)) {
        for p in 0..np {
            for q in 0..np {
                yk[(p, q)] += if k == 0 { gpp[(p, q)] } else { cpp[(p, q)] };
            }
        }
    }
    if ni == 0 {
        return Ok(y);
    }
    let lu = SparseLu::factor(&gii, LuOptions::default())
        .map_err(|_| PartitionError::SingularNumericPartition)?;
    let dot_row =
        |row: &[(usize, f64)], z: &[f64]| -> f64 { row.iter().map(|&(i, v)| v * z[i]).sum() };
    for q in 0..np {
        for (b, u) in [(0usize, &gip[q]), (1usize, &cip[q])] {
            if u.iter().all(|&v| v == 0.0) {
                continue;
            }
            // z_j = M_j u, M_0 = G_ii⁻¹, M_j = −G_ii⁻¹ C_ii M_{j−1}.
            let mut z = lu.solve(u);
            for j in 0..count {
                // a = 0 term (G_pi):
                let k0 = j + b;
                if k0 < count {
                    for p in 0..np {
                        y[k0][(p, q)] -= dot_row(&gpi[p], &z);
                    }
                }
                // a = 1 term (C_pi):
                let k1 = j + b + 1;
                if k1 < count {
                    for p in 0..np {
                        y[k1][(p, q)] -= dot_row(&cpi[p], &z);
                    }
                }
                if j + 1 < count {
                    let rhs: Vec<f64> = cii.mul_vec(&z).iter().map(|v| -v).collect();
                    z = lu.solve(&rhs);
                } else {
                    break;
                }
            }
        }
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awesym_circuit::generators::{self, fig1_rc};
    use awesym_sparse::{min_degree_order, min_degree_order_scan};
    use std::collections::HashMap;

    #[test]
    fn validation_catches_bad_bindings() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c = &w.circuit;
        let r1 = c.find("R1").unwrap();
        let c1 = c.find("C1").unwrap();
        // Empty set.
        assert!(matches!(
            SymbolicSystem::assemble(c, w.input, w.output, &[], 2),
            Err(PartitionError::BadBinding { .. })
        ));
        // Wrong kind.
        assert!(matches!(
            SymbolicSystem::assemble(
                c,
                w.input,
                w.output,
                &[SymbolBinding::capacitance("x", vec![r1])],
                2
            ),
            Err(PartitionError::RoleMismatch { .. })
        ));
        // Double binding.
        assert!(matches!(
            SymbolicSystem::assemble(
                c,
                w.input,
                w.output,
                &[
                    SymbolBinding::capacitance("a", vec![c1]),
                    SymbolBinding::capacitance("b", vec![c1])
                ],
                2
            ),
            Err(PartitionError::BadBinding { .. })
        ));
        // Duplicate names.
        assert!(matches!(
            SymbolicSystem::assemble(
                c,
                w.input,
                w.output,
                &[
                    SymbolBinding::capacitance("a", vec![c1]),
                    SymbolBinding::resistance("a", vec![r1])
                ],
                2
            ),
            Err(PartitionError::BadBinding { .. })
        ));
    }

    #[test]
    fn reference_moments_match_plain_awe() {
        // The reference solve on the reassembled full system must equal a
        // plain AWE run on the original circuit at nominal values.
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c2 = w.circuit.find("C2").unwrap();
        let sys = SymbolicSystem::assemble(
            &w.circuit,
            w.input,
            w.output,
            &[SymbolBinding::capacitance("c2", vec![c2])],
            4,
        )
        .unwrap();
        let m_ref = sys.reference_moments(&[3e-9], 4).unwrap();
        let mna = Mna::build(&w.circuit).unwrap();
        let eng = awesym_awe::MomentEngine::new(mna, w.input, w.output).unwrap();
        let m_awe = eng.compute(4).unwrap().m;
        for (a, b) in m_ref.iter().zip(m_awe.iter()) {
            assert!((a - b).abs() < 1e-12 * b.abs().max(1e-30), "{a} vs {b}");
        }
    }

    #[test]
    fn port_set_is_small() {
        let w = fig1_rc(1e-3, 1e-3, 1e-9, 1e-9);
        let c2 = w.circuit.find("C2").unwrap();
        let sys = SymbolicSystem::assemble(
            &w.circuit,
            w.input,
            w.output,
            &[SymbolBinding::capacitance("c2", vec![c2])],
            2,
        )
        .unwrap();
        // Ports: node 2 (symbol + output) and the source branch row.
        assert_eq!(sys.num_ports(), 2);
        assert_eq!(sys.symbols().len(), 1);
        assert_eq!(sys.nominal(), &[1e-9]);
    }

    #[test]
    fn moment_jacobian_matches_finite_difference() {
        let w = fig1_rc(1e-3, 2e-3, 1e-9, 3e-9);
        let c2 = w.circuit.find("C2").unwrap();
        let r1 = w.circuit.find("R1").unwrap();
        let sys = SymbolicSystem::assemble(
            &w.circuit,
            w.input,
            w.output,
            &[
                SymbolBinding::capacitance("c2", vec![c2]),
                SymbolBinding::resistance("r1", vec![r1]),
            ],
            4,
        )
        .unwrap();
        let vals = [3e-9, 1.0e3];
        let jac = sys.moment_jacobian(&vals, 4).unwrap();
        for s in 0..2 {
            let h = vals[s] * 1e-6;
            let mut vp = vals;
            vp[s] += h;
            let mut vm = vals;
            vm[s] -= h;
            let mp = sys.reference_moments(&vp, 4).unwrap();
            let mm = sys.reference_moments(&vm, 4).unwrap();
            for k in 0..4 {
                let fd = (mp[k] - mm[k]) / (2.0 * h);
                let scale = fd
                    .abs()
                    .max(1e-9 * jac[k].iter().map(|v| v.abs()).fold(0.0, f64::max))
                    .max(1e-30);
                assert!(
                    (jac[k][s] - fd).abs() / scale < 1e-3,
                    "sym {s} m{k}: {} vs fd {fd}",
                    jac[k][s]
                );
            }
        }
    }

    /// A circuit with every element kind a symbol can bind, and a CCCS
    /// controlled by the inductor's branch current.
    fn every_role_circuit() -> Circuit {
        let mut c = Circuit::new();
        let (a, b, d) = (c.node("a"), c.node("b"), c.node("d"));
        let gnd = Circuit::GROUND;
        c.add(Element::vsource("vin", a, gnd, 1.0));
        c.add(Element::resistor("r1", a, b, 1e3));
        c.add(Element::resistor("rg", b, d, 2e3));
        c.add(Element::capacitor("c1", b, gnd, 1e-12));
        c.add(Element::inductor("l1", b, d, 1e-9));
        c.add(Element::capacitor("c2", d, gnd, 2e-12));
        c.add(Element::vccs("gm", d, gnd, a, b, 1e-3));
        c.add(Element::cccs("f1", a, d, "l1", 0.5));
        c.add(Element::resistor("rl", d, gnd, 5e3));
        c
    }

    /// `circuit` copied into a new `Circuit` with each bound element
    /// replaced by the stand-in `skeleton_mna` stamps for it.
    fn copy_with_stand_ins(circuit: &Circuit, bindings: &[SymbolBinding]) -> Circuit {
        let role_of: HashMap<ElementId, SymbolRole> = bindings
            .iter()
            .flat_map(|b| b.elements.iter().map(move |&eid| (eid, b.role)))
            .collect();
        let mut out = Circuit::new();
        for k in 1..circuit.num_nodes() {
            out.node(circuit.node_name(Node(k)));
        }
        for (i, e) in circuit.elements().iter().enumerate() {
            out.add(match role_of.get(&ElementId(i)) {
                None => e.clone(),
                Some(SymbolRole::Conductance) => {
                    Element::resistor(&e.name, e.p, e.n, f64::INFINITY)
                }
                Some(SymbolRole::Capacitance) => Element::capacitor(&e.name, e.p, e.n, 0.0),
                Some(SymbolRole::Transconductance) => {
                    Element::vccs(&e.name, e.p, e.n, e.cp, e.cn, 0.0)
                }
                Some(SymbolRole::Resistance | SymbolRole::Inductance) => {
                    Element::inductor(&e.name, e.p, e.n, 0.0)
                }
            });
        }
        out
    }

    fn csc_bits(m: &Csc<f64>) -> Vec<Vec<(usize, u64)>> {
        (0..m.dim())
            .map(|j| m.col_iter(j).map(|(r, v)| (r, v.to_bits())).collect())
            .collect()
    }

    #[test]
    fn skeleton_mna_matches_a_rebuilt_circuit_bit_for_bit() {
        let c = every_role_circuit();
        let id = |name: &str| vec![c.find(name).unwrap()];
        let each_role = [
            SymbolBinding::conductance("g", id("rg")),
            SymbolBinding::resistance("r", id("r1")),
            SymbolBinding::capacitance("c", id("c1")),
            SymbolBinding::inductance("l", id("l1")),
            SymbolBinding::transconductance("gm", id("gm")),
        ];
        let mut cases: Vec<Vec<SymbolBinding>> =
            each_role.iter().map(|b| vec![b.clone()]).collect();
        cases.push(each_role.to_vec());
        cases.push(vec![SymbolBinding::capacitance(
            "cc",
            vec![c.find("c1").unwrap(), c.find("c2").unwrap()],
        )]);
        let input = c.find("vin").unwrap();
        for bindings in &cases {
            let got = skeleton_mna(&c, bindings).unwrap();
            let want = Mna::build(&copy_with_stand_ins(&c, bindings)).unwrap();
            let what = format!("{bindings:?}");
            assert_eq!(got.dim(), want.dim(), "{what}");
            assert_eq!(csc_bits(got.g()), csc_bits(want.g()), "G of {what}");
            assert_eq!(csc_bits(got.c()), csc_bits(want.c()), "C of {what}");
            let bits = |m: &Mna| -> Vec<u64> {
                let b = m.unit_source_vector(input).unwrap();
                b.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "b of {what}");
            for e in c.elements() {
                assert_eq!(got.branch_index(&e.name), want.branch_index(&e.name));
            }
        }
    }

    /// The internal block `G_ii` that `port_moment_matrices` factors.
    fn internal_g(sys: &SymbolicSystem) -> Csc<f64> {
        let dim = sys.full_b.len();
        let mut int_of = vec![None; dim];
        let mut ni = 0;
        for (i, slot) in int_of.iter_mut().enumerate() {
            if sys.ports.binary_search(&i).is_err() {
                *slot = Some(ni);
                ni += 1;
            }
        }
        let mut t = Triplets::new(ni);
        for col in 0..dim {
            for (row, v) in sys.full_g.col_iter(col) {
                if let (Some(r), Some(c)) = (int_of[row], int_of[col]) {
                    t.push(r, c, v);
                }
            }
        }
        t.to_csc()
    }

    #[test]
    fn min_degree_heap_matches_the_scan_on_every_generator_and_fleet_block() {
        let lines = generators::coupled_lines(&Default::default());
        let amp = generators::opamp741();
        let mesh = generators::rc_mesh(30, 30, 10.0, 1e-15);
        let circuits = [
            fig1_rc(1e-3, 2e-3, 1e-9, 2e-9).circuit,
            generators::rc_ladder(50, 10.0, 1e-13).circuit,
            generators::rc_tree(5, 10.0, 1e-13).circuit,
            lines.circuit.clone(),
            amp.circuit.clone(),
            mesh.circuit.clone(),
            generators::h_tree(4, 50.0, 1e-12, 20e-15).circuit,
            generators::gate_stage(1e3, 16, 5.0, 2e-15, 5e-15).circuit,
            generators::rlc_line(20, 5.0, 10e-9, 2e-12, 25.0, 0.2e-12).circuit,
        ];
        for (k, circuit) in circuits.iter().enumerate() {
            let g = Mna::build(circuit).unwrap().g().clone();
            assert_eq!(
                min_degree_order(&g),
                min_degree_order_scan(&g),
                "generator {k}"
            );
        }

        // The served fleet, compiled from its SPICE text as a client sends it.
        let fleet = [
            (
                &amp.circuit,
                amp.output,
                [("ro_q14", true), ("c_comp", false)],
            ),
            (
                &lines.circuit,
                lines.aggressor_out,
                [("rdrv1", false), ("cload1", false)],
            ),
            (
                &lines.circuit,
                lines.victim_out,
                [("rdrv1", false), ("cload2", false)],
            ),
            (
                &mesh.circuit,
                mesh.output,
                [("rdrv", false), ("cm29_29", false)],
            ),
        ];
        for (circuit, output, symbols) in fleet {
            let parsed = awesym_circuit::parse_spice(&circuit.to_spice()).unwrap();
            let bindings: Vec<SymbolBinding> = symbols
                .iter()
                .map(|&(name, as_conductance)| {
                    let ids = vec![parsed.find(name).unwrap()];
                    if as_conductance {
                        SymbolBinding::conductance(name, ids)
                    } else {
                        SymbolBinding::auto(&parsed, name, ids)
                    }
                })
                .collect();
            let output = parsed.find_node(circuit.node_name(output)).unwrap();
            let input = parsed.find("vin").unwrap();
            let sys = SymbolicSystem::assemble(&parsed, input, output, &bindings, 2).unwrap();
            let gii = internal_g(&sys);
            assert_eq!(
                min_degree_order(&gii),
                min_degree_order_scan(&gii),
                "{symbols:?}"
            );
        }
    }
}
