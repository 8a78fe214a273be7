fn main() {
    scan_bench::experiments::main("ablation_chain_mask", &mut std::io::stdout());
}
