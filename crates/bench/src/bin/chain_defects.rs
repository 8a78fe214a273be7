fn main() {
    scan_bench::experiments::main("chain_defects", &mut std::io::stdout());
}
