fn main() {
    scan_bench::experiments::main("dictionary", &mut std::io::stdout());
}
