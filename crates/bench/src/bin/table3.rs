fn main() {
    scan_bench::experiments::main("table3", &mut std::io::stdout());
}
