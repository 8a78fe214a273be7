fn main() {
    scan_bench::experiments::main("table1", &mut std::io::stdout());
}
