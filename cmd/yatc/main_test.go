package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yat"
	"yat/internal/library"
	"yat/internal/sgml"
	"yat/internal/workload"
)

func TestLoadProgramBuiltin(t *testing.T) {
	for _, name := range []string{"sgml2odmg", "odmg2html", "sgml2odmgTyped", "sgml2odmgPrime"} {
		p, err := library.ResolveProgram(name)
		if err != nil {
			t.Errorf("builtin %s: %v", name, err)
			continue
		}
		if len(p.Rules) == 0 {
			t.Errorf("builtin %s has no rules", name)
		}
	}
	if _, err := library.ResolveProgram("nope"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

func TestLoadProgramFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.yatl")
	if err := os.WriteFile(path, []byte(yat.Rules1And2), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := library.ResolveProgram(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "sgml2odmg" {
		t.Errorf("program name = %q", p.Name)
	}
}

func TestLoadInputsStoreFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "in.yat")
	content := `b1: brochure < number < 1 >, title < "Golf" >, model < 1995 >, desc < "d" >,
	             spplrs < supplier < name < "VW" >, address < "Rue A, 75001 Paris" > > > >`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := loadInputs(path, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Errorf("store = %d entries", store.Len())
	}
}

func TestLoadInputsSGMLDir(t *testing.T) {
	dir := t.TempDir()
	docs := workload.BrochureDocs(3, 2, 4, 8)
	for name, content := range docs {
		if err := os.WriteFile(filepath.Join(dir, name+".sgml"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dtdPath := filepath.Join(dir, "brochure.dtd")
	if err := os.WriteFile(dtdPath, []byte(sgml.BrochureDTDSource), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := loadInputs("", dir, dtdPath)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 3 {
		t.Errorf("store = %d entries", store.Len())
	}
	// Validation failures are reported.
	if err := os.WriteFile(filepath.Join(dir, "bad.sgml"), []byte("<brochure></brochure>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadInputs("", dir, dtdPath); err == nil {
		t.Error("invalid document accepted under -dtd")
	}
}

func TestEndToEndConversion(t *testing.T) {
	// The full yatc pipeline without the flag plumbing: SGML dir in,
	// HTML dir out.
	dir := t.TempDir()
	for name, content := range workload.BrochureDocs(2, 2, 3, 4) {
		if err := os.WriteFile(filepath.Join(dir, name+".sgml"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inputs, err := loadInputs("", dir, "")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := library.ResolveProgram("sgml2odmgTyped")
	if err != nil {
		t.Fatal(err)
	}
	web, err := library.ResolveProgram("odmg2html")
	if err != nil {
		t.Fatal(err)
	}
	composed, err := yat.ComposePrograms(prog, web)
	if err != nil {
		t.Fatal(err)
	}
	result, err := yat.Run(composed, inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	pages, err := yat.ExportHTML(result.Outputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "html")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for url, content := range pages {
		if err := os.WriteFile(filepath.Join(outDir, url), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := os.ReadDir(outDir)
	if len(entries) != len(pages) || len(pages) == 0 {
		t.Errorf("wrote %d files for %d pages", len(entries), len(pages))
	}
	data, _ := os.ReadFile(filepath.Join(outDir, entries[0].Name()))
	if !strings.Contains(string(data), "<!DOCTYPE html>") {
		t.Error("exported page is not HTML")
	}
}

func TestPageHandler(t *testing.T) {
	pages := map[string]string{
		"a.html": "<!DOCTYPE html>\n<html>A</html>",
		"b.html": "<!DOCTYPE html>\n<html>B</html>",
	}
	h := pageHandler(pages)
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/")
	if code != 200 || !strings.Contains(body, `href="/a.html"`) || !strings.Contains(body, `href="/b.html"`) {
		t.Errorf("index: %d %q", code, body)
	}
	code, body = get("/a.html")
	if code != 200 || body != pages["a.html"] {
		t.Errorf("page a: %d %q", code, body)
	}
	code, _ = get("/missing.html")
	if code != 404 {
		t.Errorf("missing page: %d", code)
	}
}
