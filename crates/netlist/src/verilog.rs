//! Structural Verilog export.
//!
//! Writes a netlist as a synthesizable gate-level Verilog module using
//! primitive gates (`and`, `nand`, `or`, `nor`, `xor`, `xnor`, `not`,
//! `buf`) and behavioural D flip-flops — the handoff format for
//! inspecting the synthetic benchmarks in standard EDA tools.

use std::fmt::Write as _;

use crate::gate::{GateKind, NetId};
use crate::Netlist;

/// Renders the netlist as a structural Verilog module.
///
/// Net names are sanitized to Verilog identifiers (non-alphanumeric
/// characters become `_`; a leading digit gets an `n` prefix).
///
/// # Examples
///
/// ```
/// use scan_netlist::{bench, verilog};
///
/// let v = verilog::to_verilog(&bench::s27());
/// assert!(v.contains("module s27"));
/// assert!(v.contains("always @(posedge clk)"));
/// ```
#[must_use]
pub fn to_verilog(netlist: &Netlist) -> String {
    let mut out = String::new();
    let ident = |net: NetId| sanitize(netlist.net_name(net));
    let module = sanitize(netlist.name());

    let mut ports: Vec<String> = vec!["clk".to_owned()];
    ports.extend(netlist.inputs().iter().map(|&n| ident(n)));
    ports.extend(netlist.outputs().iter().map(|&n| ident(n)));
    let _ = writeln!(out, "module {module} ({});", ports.join(", "));
    let _ = writeln!(out, "  input clk;");
    for &net in netlist.inputs() {
        let _ = writeln!(out, "  input {};", ident(net));
    }
    for &net in netlist.outputs() {
        let _ = writeln!(out, "  output {};", ident(net));
    }
    // Internal wires: every net that is neither a PI nor a DFF output.
    let mut regs = Vec::new();
    for dff in netlist.dffs() {
        regs.push(ident(dff.q));
    }
    for net in netlist.net_ids() {
        let name = ident(net);
        let is_pi = netlist.inputs().contains(&net);
        let is_reg = regs.contains(&name);
        if !is_pi && !is_reg {
            let _ = writeln!(out, "  wire {name};");
        }
    }
    for reg in &regs {
        let _ = writeln!(out, "  reg {reg};");
    }
    let _ = writeln!(out);
    for (i, gate) in netlist.gates().iter().enumerate() {
        let prim = match gate.kind {
            GateKind::And => "and",
            GateKind::Nand => "nand",
            GateKind::Or => "or",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Not => "not",
            GateKind::Buf => "buf",
        };
        let mut pins = vec![ident(gate.output)];
        pins.extend(gate.inputs.iter().map(|&n| ident(n)));
        let _ = writeln!(out, "  {prim} g{i} ({});", pins.join(", "));
    }
    if !netlist.dffs().is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "  always @(posedge clk) begin");
        for dff in netlist.dffs() {
            let _ = writeln!(out, "    {} <= {};", ident(dff.q), ident(dff.d));
        }
        let _ = writeln!(out, "  end");
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn sanitize(name: &str) -> String {
    let mut ident: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if ident.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        ident.insert(0, 'n');
    }
    ident
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    #[test]
    fn s27_verilog_structure() {
        let v = to_verilog(&bench::s27());
        assert!(v.starts_with("module s27 (clk, G0, G1, G2, G3, G17);"));
        assert!(v.contains("input G0;"));
        assert!(v.contains("output G17;"));
        assert!(v.contains("reg G5;"));
        assert!(v.contains("nand g"));
        assert!(v.contains("G5 <= G10;"));
        assert!(v.trim_end().ends_with("endmodule"));
    }

    #[test]
    fn gate_count_preserved() {
        let n = bench::s27();
        let v = to_verilog(&n);
        let gate_lines = v
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                [
                    "and ", "nand ", "or ", "nor ", "xor ", "xnor ", "not ", "buf ",
                ]
                .iter()
                .any(|p| t.starts_with(p))
            })
            .count();
        assert_eq!(gate_lines, n.num_gates());
    }

    #[test]
    fn sanitize_handles_awkward_names() {
        assert_eq!(sanitize("G10"), "G10");
        assert_eq!(sanitize("10g"), "n10g");
        assert_eq!(sanitize("a.b[3]"), "a_b_3_");
        assert_eq!(sanitize(""), "n");
    }

    #[test]
    fn combinational_circuit_has_no_always_block() {
        let n = crate::Netlist::from_bench("inv", "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n").unwrap();
        let v = to_verilog(&n);
        assert!(!v.contains("always"));
        assert!(v.contains("not g0 (y, a);"));
    }
}
