fn main() {
    scan_bench::experiments::main("adaptive_compare", &mut std::io::stdout());
}
