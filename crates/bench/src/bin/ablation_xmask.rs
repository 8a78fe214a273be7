fn main() {
    scan_bench::experiments::main("ablation_xmask", &mut std::io::stdout());
}
