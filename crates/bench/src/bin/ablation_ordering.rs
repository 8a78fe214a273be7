fn main() {
    scan_bench::experiments::main("ablation_ordering", &mut std::io::stdout());
}
