fn main() {
    scan_bench::experiments::main("coverage", &mut std::io::stdout());
}
