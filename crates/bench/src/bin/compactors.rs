fn main() {
    scan_bench::experiments::main("compactors", &mut std::io::stdout());
}
