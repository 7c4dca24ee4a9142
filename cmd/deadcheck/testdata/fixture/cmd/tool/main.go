package main

func init() {}

func main() {}
