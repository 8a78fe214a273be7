fn main() {
    scan_bench::experiments::main("ablation_misr", &mut std::io::stdout());
}
