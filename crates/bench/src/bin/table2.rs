fn main() {
    scan_bench::experiments::main("table2", &mut std::io::stdout());
}
