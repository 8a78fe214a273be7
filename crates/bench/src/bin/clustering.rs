fn main() {
    scan_bench::experiments::main("clustering", &mut std::io::stdout());
}
