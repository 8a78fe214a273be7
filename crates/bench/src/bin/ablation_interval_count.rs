fn main() {
    scan_bench::experiments::main("ablation_interval_count", &mut std::io::stdout());
}
