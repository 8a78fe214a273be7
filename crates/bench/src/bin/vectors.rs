fn main() {
    scan_bench::experiments::main("vectors", &mut std::io::stdout());
}
